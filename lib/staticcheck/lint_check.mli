(** Surface-idiom and layout rules, run on the typed trees like every
    other pass:

    - [ignored-result] — [ignore (Api.lock ...)], [ignore (Api.unlock ...)]
      or [ignore (Engine.run ...)]. These return [unit]; wrapping them in
      [ignore] suggests the author expected (and discarded) a result such
      as an acquisition status. Matched on resolved paths, so prose,
      string literals and [open]s cannot fool it (a local module alias,
      [module E = Engine], is not followed).
    - [missing-mli] — a module compiled without an interface: its .cmt
      has no .cmti beside it ([*_intf.ml] module-type-only files are
      exempt). *)

val ignored_result : Cmt_load.module_info -> Finding.t list
val missing_mli : Cmt_load.module_info -> Finding.t list

val check : Cmt_load.module_info list -> Finding.t list
(** [ignored_result] on every module, [missing_mli] on the [lib/] ones. *)
