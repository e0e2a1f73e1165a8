(* Loading dune's .cmt files and the small bits of compiler-libs plumbing
   every pass needs: normalized path names, top-level binding maps, and
   the [@alloc_ok] escape-hatch attribute. *)

type module_info = {
  cmt_path : string;
  modname : string;  (* e.g. "O2_runtime__Event_queue" *)
  short : string;  (* e.g. "Event_queue" *)
  source : string;  (* e.g. "lib/runtime/event_queue.ml" *)
  structure : Typedtree.structure;
}

(* Dune's wrapping compiles Event_queue as O2_runtime__Event_queue; the
   short name is what manifests and messages use. The separator is the
   last "__" followed by a regular character — module names themselves
   may contain single underscores (Object_table, Fat_dir). *)
let short_of_modname m =
  let n = String.length m in
  let rec last_sep i best =
    if i >= n - 1 then best
    else if m.[i] = '_' && m.[i + 1] = '_' && i + 2 < n && m.[i + 2] <> '_'
    then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some j -> String.sub m j (n - j)
  | None -> m

let load cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | infos -> (
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation structure ->
          let source =
            match infos.Cmt_format.cmt_sourcefile with
            | Some s -> s
            | None -> cmt_path
          in
          Some
            {
              cmt_path;
              modname = infos.Cmt_format.cmt_modname;
              short = short_of_modname infos.Cmt_format.cmt_modname;
              source;
              structure;
            }
      | _ -> None)

(* Walk [root] for .cmt files, skipping the duplicate copies dune places
   under _build/install and any VCS directories. *)
let discover ~root =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun entry ->
            let path = Filename.concat dir entry in
            if Sys.is_directory path then begin
              if entry <> "install" && entry <> ".git" then walk path
            end
            else if Filename.check_suffix entry ".cmt" then
              acc := path :: !acc)
          entries
  in
  if Sys.file_exists root && Sys.is_directory root then walk root;
  List.rev !acc

(* Candidate build roots for cmt discovery, in preference order: an
   explicit dir, the root itself (a build tree, where the .objs
   directories sit alongside lib/), and _build/default under a source
   root. Only locations under [root] are probed: a typo'd root must
   error, not silently scan whatever tree the cwd happens to hold. *)
let find_build_root ?build_dir ~root () =
  let has_objs dir =
    Sys.file_exists (Filename.concat dir "lib")
    && List.exists
         (fun sub ->
           let d = Filename.concat (Filename.concat dir "lib") sub in
           Sys.file_exists d && Sys.is_directory d
           && Array.exists
                (fun e -> String.length e > 5 && Filename.check_suffix e ".objs")
                (try Sys.readdir d with Sys_error _ -> [||]))
         (try
            Array.to_list (Sys.readdir (Filename.concat dir "lib"))
          with Sys_error _ -> [])
  in
  let candidates =
    (match build_dir with Some d -> [ d ] | None -> [])
    @ [ root; Filename.concat root "_build/default" ]
  in
  List.find_opt has_objs candidates

let load_tree ?build_dir ?(under = "lib") ~root () =
  match find_build_root ?build_dir ~root () with
  | None -> Error "no build tree with .cmt files found (run `dune build @check`)"
  | Some broot ->
      let prefix = under ^ "/" in
      let n = String.length prefix in
      let seen = Hashtbl.create 64 in
      let mods =
        List.filter_map
          (fun p ->
            match load p with
            | Some m
              when (not (Hashtbl.mem seen m.modname))
                   && String.length m.source >= n
                   && String.sub m.source 0 n = prefix ->
                Hashtbl.add seen m.modname ();
                Some m
            | _ -> None)
          (discover ~root:(Filename.concat broot under))
      in
      if mods = [] then Error (Printf.sprintf "no %s .cmt files under %s" under broot)
      else Ok mods

(* ------------------------------------------------------------------ *)
(* Path normalization                                                  *)

(* "O2_runtime__Api.read" -> ["O2_runtime"; "Api"; "read"]. *)
let split_component s =
  let parts = ref [] in
  let n = String.length s in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '_' && s.[!i + 1] = '_' && !i + 2 < n && s.[!i + 2] <> '_' then begin
      if !i > !start then parts := String.sub s !start (!i - !start) :: !parts;
      start := !i + 2;
      i := !i + 2
    end
    else incr i
  done;
  if !start < n then parts := String.sub s !start (n - !start) :: !parts;
  List.rev !parts

let rec path_components p =
  match p with
  | Path.Pident id -> split_component (Ident.name id)
  | Path.Pdot (base, s) -> path_components base @ split_component s
  | Path.Papply (a, b) -> path_components a @ path_components b
  | _ -> []

let path_name p = String.concat "." (path_components p)

(* The last [k] components, joined — handy for suffix matching that is
   robust to wrapping prefixes and open/alias differences. *)
let path_tail ~k p =
  let comps = path_components p in
  let n = List.length comps in
  let rec drop i = function
    | l when i <= 0 -> l
    | _ :: tl -> drop (i - 1) tl
    | [] -> []
  in
  String.concat "." (drop (n - k) comps)

(* Does the path denote [Mod.fn] (possibly nested under wrappers)? *)
let path_is ~modname ~fn p = path_tail ~k:2 p = modname ^ "." ^ fn

let path_in_module ~modname p =
  let comps = path_components p in
  let rec go = function
    | [ m; _ ] -> m = modname
    | _ :: tl -> go tl
    | [] -> false
  in
  go comps

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)

let attr_payload_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

let find_attr name (attrs : Parsetree.attributes) =
  List.find_opt (fun a -> a.Parsetree.attr_name.Location.txt = name) attrs

let has_attr name attrs = find_attr name attrs <> None

let attr_reason name attrs =
  match find_attr name attrs with
  | None -> None
  | Some a -> ( match attr_payload_string a with Some s -> Some s | None -> Some "")

(* ------------------------------------------------------------------ *)
(* Top-level structure bindings                                        *)

(* Map from value name to its binding, for manifest lookup and
   same-module transitive analysis. Multiple bindings of the same name
   keep the last one (what the rest of the module sees). Values inside
   nested structures are included under their dotted path ("Sub.fn") so
   manifests can name functions of modules that group their API into
   submodules. *)
let top_bindings (str : Typedtree.structure) =
  let tbl = Hashtbl.create 64 in
  let rec items prefix (str : Typedtree.structure) =
    List.iter
      (fun item ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (id, _) ->
                    Hashtbl.replace tbl (prefix ^ Ident.name id) vb
                | _ -> ())
              vbs
        | Typedtree.Tstr_module mb -> module_binding prefix mb
        | Typedtree.Tstr_recmodule mbs ->
            List.iter (module_binding prefix) mbs
        | _ -> ())
      str.Typedtree.str_items
  and module_binding prefix (mb : Typedtree.module_binding) =
    match mb.Typedtree.mb_id with
    | None -> ()
    | Some id -> mod_expr (prefix ^ Ident.name id ^ ".") mb.Typedtree.mb_expr
  and mod_expr prefix (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s -> items prefix s
    | Typedtree.Tmod_constraint (me, _, _, _) -> mod_expr prefix me
    | _ -> ()
  in
  items "" str;
  tbl

(* Idents bound at the structure's top level, keyed by [Ident.unique_name]
   (name + stamp) so that locals shadowing a top-level name are not
   confused with it. A nested closure whose free variables are all
   top-level (or from other modules) is a constant closure, statically
   allocated by the native compiler. *)
let top_ident_stamps (str : Typedtree.structure) =
  let set = Hashtbl.create 64 in
  let rec pat_idents : Typedtree.pattern -> unit =
   fun p ->
    match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) ->
        Hashtbl.replace set (Ident.unique_name id) ()
    | Typedtree.Tpat_alias (q, id, _) ->
        Hashtbl.replace set (Ident.unique_name id) ();
        pat_idents q
    | Typedtree.Tpat_tuple ps -> List.iter pat_idents ps
    | _ -> ()
  in
  let rec items (str : Typedtree.structure) =
    List.iter
      (fun item ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter (fun vb -> pat_idents vb.Typedtree.vb_pat) vbs
        | Typedtree.Tstr_module mb -> mod_expr mb.Typedtree.mb_expr
        | Typedtree.Tstr_recmodule mbs ->
            List.iter (fun mb -> mod_expr mb.Typedtree.mb_expr) mbs
        | _ -> ())
      str.Typedtree.str_items
  and mod_expr (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s -> items s
    | Typedtree.Tmod_constraint (me, _, _, _) -> mod_expr me
    | _ -> ()
  in
  items str;
  set
