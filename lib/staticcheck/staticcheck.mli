(** Typedtree-based static analysis over the repo's own .cmt files.

    Three semantic passes (allocation on the hot-path manifest,
    effect-freedom of observability listeners, spinlock discipline), the
    raw-primitive allowlist, and the lint rules ([ignored-result],
    [missing-mli]), all running on dune's typed trees instead of source
    text. *)

type report = {
  findings : Finding.t list;
  modules_scanned : int;
  manifest_functions : int;
  listeners_checked : int;
}

val run_on_modules :
  ?manifest:Manifest.entry list ->
  ?allowlist:string list ->
  Cmt_load.module_info list ->
  report
(** Run every pass over an explicit module list (used by the test
    fixtures). *)

val run :
  ?build_dir:string ->
  ?manifest:Manifest.entry list ->
  ?allowlist:string list ->
  root:string ->
  unit ->
  (report, string) result
(** Discover .cmt files under a build tree rooted at [root] (or
    [build_dir]) and run all passes over the [lib/] modules, plus
    [ignored-result] over the [examples/] programs. Because the scan covers the whole
    tree, it also reports stale entries: [manifest-missing] for a
    manifest module that no scanned module matches, [allowlist-missing]
    for an allowlist path that no scanned source matches. [Error] when
    no cmts are found. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
