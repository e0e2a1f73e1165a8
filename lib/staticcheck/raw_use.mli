(** Raw-primitive pass: typedtree port of the old textual allowlist
    rules. Flags resolved uses of [Mutex]/[Domain]/[Condition] outside
    the allowlisted domain-pool shim, and [Obj.magic] anywhere. *)

val default_allowlist : string list
(** Source paths permitted to touch raw primitives: the two concurrency
    shims, [lib/runtime/domain_pool.ml] (cell-level parallelism) and
    [lib/native/native_pool.ml] (the native backend's worker domains). *)

val check_module :
  ?allowlist:string list -> Cmt_load.module_info -> Finding.t list

val check :
  ?allowlist:string list -> Cmt_load.module_info list -> Finding.t list

val check_allowlist :
  ?allowlist:string list -> Cmt_load.module_info list -> Finding.t list
(** [allowlist-missing] for every allowlisted path that is the source of
    none of [mods]. Meaningful only when [mods] is the whole tree. *)
