(** Directory-entry operations over a cluster chain: the linear 32-byte
    entry scan at the heart of the paper's benchmark.

    Host-side functions ({!find}, {!add}, {!list}, ...) manipulate the
    image directly and cost nothing; {!lookup_sim} performs the same scan
    from inside a simulated thread, charging memory reads for every FAT
    link followed and every entry examined plus a per-entry compare cost —
    the "higher-performance inner loop for file name lookup" of Section 5. *)

val entries_per_cluster : Fat_image.t -> int

val find : Fat_image.t -> head:int -> name83:string -> Fat_types.entry option
(** Host-side linear scan; stops at the end-of-directory marker. *)

val add : Fat_image.t -> head:int -> Fat_types.entry -> (unit, string) result
(** Write an entry into the first free slot (the first deleted slot, else
    the end marker), extending the chain with a fresh cluster when there
    is none. One walk over the chain does both the duplicate check and the
    free-slot search. Fails when the volume is full or the entry name
    duplicates an existing one. *)

type listing
(** The directory slots of a list of files, encoded once and copied into
    every directory populated from it: one empty file entry ([attr_archive],
    cluster 0, size 0) per name. Every name in a listing is a valid encoded
    8.3 name. *)

val listing_of_names83 : string array -> (listing, string) result
(** Check every name with {!Fat_name.is_83} and encode the slots, in
    order, into one buffer of [32 * Array.length names83] bytes. [Error]
    names the first name that is not a valid encoded 8.3 name. Build it
    once per name array (see {!Fat_name.numbered}); populating a directory
    then costs no per-name work. *)

val append_bulk : Fat_image.t -> head:int -> listing -> (unit, string) result
(** Append a listing's entries, in order, after the directory's last
    entry, extending the chain as needed: one [Bytes.blit] per cluster
    written, from the end slot of the last cluster on. The unused tail of
    the last cluster written is zeroed, so clusters freed with stale bytes
    are safe to reuse. Clusters are allocated in chain order, one at a
    time, exactly as repeated {!add} would. All or nothing: when the
    volume has too few free clusters it returns [Error] having written
    nothing. There is no duplicate check: the caller guarantees the names
    are distinct and absent from the directory (directory population). *)

val remove : Fat_image.t -> head:int -> name83:string -> bool
(** Mark an entry deleted; false when absent. *)

val list : Fat_image.t -> head:int -> Fat_types.entry list
(** Live entries, in directory order. *)

val count : Fat_image.t -> head:int -> int

val lookup_sim :
  Fat_image.t ->
  head:int ->
  name83:string ->
  compare_cycles:int ->
  Fat_types.entry option
(** The simulated scan: must run inside an {!O2_runtime.Engine.spawn}ed
    thread. Reads exactly the bytes a real scan would touch before
    matching (or before hitting the end marker) and charges
    [compare_cycles] of compute per entry examined. *)
