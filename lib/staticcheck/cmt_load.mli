(** Loading dune's .cmt files plus the compiler-libs plumbing shared by
    all passes: normalized paths, top-level binding maps, and the
    [@alloc_ok] attribute helpers. *)

type module_info = {
  cmt_path : string;
  modname : string;  (** wrapped name, e.g. ["O2_runtime__Event_queue"] *)
  short : string;  (** unwrapped, e.g. ["Event_queue"] *)
  source : string;  (** e.g. ["lib/runtime/event_queue.ml"] *)
  structure : Typedtree.structure;
}

val short_of_modname : string -> string
val load : string -> module_info option
(** Read one .cmt; [None] for interfaces, packs, or unreadable files. *)

val discover : root:string -> string list
(** All .cmt paths under [root], skipping [_build/install] duplicates. *)

val find_build_root : ?build_dir:string -> root:string -> unit -> string option
val load_tree :
  ?build_dir:string ->
  ?under:string ->
  root:string ->
  unit ->
  (module_info list, string) result
(** Load every implementation .cmt whose source lies under [under]
    (default ["lib"]), deduplicated by module name. *)

val split_component : string -> string list
val path_components : Path.t -> string list
(** ["O2_runtime__Api.read"] becomes [["O2_runtime"; "Api"; "read"]]. *)

val path_name : Path.t -> string
val path_tail : k:int -> Path.t -> string
val path_is : modname:string -> fn:string -> Path.t -> bool
val path_in_module : modname:string -> Path.t -> bool

val find_attr :
  string -> Parsetree.attributes -> Parsetree.attribute option

val has_attr : string -> Parsetree.attributes -> bool
val attr_reason : string -> Parsetree.attributes -> string option

val top_bindings :
  Typedtree.structure -> (string, Typedtree.value_binding) Hashtbl.t
(** Value bindings of the structure keyed by name; values inside nested
    structures appear under their dotted path ("Barrier.wait_round"), so
    manifests can reach into modules that group their API into
    submodules. *)

val top_ident_stamps : Typedtree.structure -> (string, unit) Hashtbl.t
(** Idents bound at the structure's top level (including inside nested
    structures), keyed by [Ident.unique_name] — the set against which
    closure free variables are judged constant and mutation roots judged
    module-level. *)
