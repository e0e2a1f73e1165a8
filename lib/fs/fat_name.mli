(** 8.3 short-name handling: conversion between user names like
    ["file0042.txt"] and the 11-byte space-padded uppercase form stored in
    directory entries (["FILE0042TXT"]). *)

val to_83 : string -> (string, string) result
(** Encode; [Error] explains why the name is not a valid 8.3 name
    (empty, too long, bad characters, multiple dots...). *)

val to_83_exn : string -> string

val numbered : prefix:string -> count:int -> string array
(** The encoded names of [<prefix>0.dat] ... [<prefix>(count-1).dat], the
    benchmark's directory contents, built once so every directory can be
    populated from the same {!Fat.listing}. Equal to
    [Array.init count (fun i -> to_83_exn (prefix ^ string_of_int i ^ ".dat"))],
    but only the longest name goes through {!to_83}: the others are
    written directly.
    @raise Invalid_argument when one of them is not a valid 8.3 name, or
    when [count] is negative. *)

val is_83 : string -> bool
(** Whether a string is exactly what {!to_83} produces for some name: 11
    bytes, an uppercase base of 1-8 valid characters and an extension of
    0-3, each padded with trailing spaces. *)

val of_83 : string -> string
(** Decode a padded 11-byte form back to ["name.ext"] (lowercased). *)

val equal : string -> string -> bool
(** Case-insensitive comparison of two user names via their 8.3 forms;
    false if either is invalid. *)

val valid : string -> bool
