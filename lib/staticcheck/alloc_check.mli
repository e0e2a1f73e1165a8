(** Allocation pass over the hot-path manifest.

    Flags boxed constructors, tuples, records, array literals, lazy
    suspensions, non-constant closures, partial applications, [ref]
    cells, known-allocating stdlib calls, and tail-position float boxing
    inside manifest functions. Raising applications are skipped;
    [@alloc_ok "reason"] on an expression or binding suppresses the
    subtree. *)

val check_module :
  ?manifest:Manifest.entry list -> Cmt_load.module_info -> Finding.t list

val check :
  ?manifest:Manifest.entry list -> Cmt_load.module_info list -> Finding.t list

val check_manifest_modules :
  ?manifest:Manifest.entry list -> Cmt_load.module_info list -> Finding.t list
(** [manifest-missing] for every manifest entry whose module is none of
    [mods]. Meaningful only when [mods] is the whole tree. *)
