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
(** Write an entry into the first free slot (deleted or end), extending
    the chain with a fresh cluster when full. Fails when the volume is
    full or the entry name duplicates an existing one. *)

val append_bulk :
  Fat_image.t -> head:int -> string array -> (unit, string) result
(** Append one empty file entry per already-encoded 8.3 name (see
    {!Fat_name.numbered}), in order, extending the chain as needed: each
    slot is written straight from its name, so this is O(chain + names)
    where {!add} is O(chain) per entry. All or nothing: when a name is not
    a valid encoded 8.3 name ({!Fat_name.is_83}) or the volume has too few
    free clusters, it returns [Error] having written nothing. There is no
    duplicate check: the caller guarantees the names are distinct and
    absent from the directory (directory population). *)

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
