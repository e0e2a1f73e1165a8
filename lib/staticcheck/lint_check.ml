(* Surface idiom and file layout: an [ignore] wrapped around a
   unit-returning runtime call, and a library module without an
   interface. *)

open Typedtree

let unit_calls = [ ("Api", "lock"); ("Api", "unlock"); ("Engine", "run") ]

let is_stdlib_ignore p = Cmt_load.path_components p = [ "Stdlib"; "ignore" ]

let ignored_result (m : Cmt_load.module_info) =
  let out = ref [] in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply (f, [ (_, Some arg) ]) -> (
        match (Expr_scan.callee_path f, arg.exp_desc) with
        | Some ign, Texp_apply (g, _) when is_stdlib_ignore ign -> (
            match Expr_scan.callee_path g with
            | Some p -> (
                match
                  List.find_opt
                    (fun (modname, fn) -> Cmt_load.path_is ~modname ~fn p)
                    unit_calls
                with
                | Some (modname, fn) ->
                    out :=
                      Finding.make ~pass:"lint" ~code:"ignored-result"
                        ~file:m.Cmt_load.source ~line:(Expr_scan.loc_line e)
                        ~func:""
                        (Printf.sprintf
                           "ignore (%s.%s ...): this returns unit; the ignore \
                            hides nothing and suggests a discarded status"
                           modname fn)
                      :: !out
                | None -> ())
            | None -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter m.Cmt_load.structure;
  List.sort Finding.compare !out

let missing_mli (m : Cmt_load.module_info) =
  let src = m.Cmt_load.source in
  if
    Filename.check_suffix src ".ml"
    && (not (Filename.check_suffix src "_intf.ml"))
    && not
         (Sys.file_exists
            (Filename.remove_extension m.Cmt_load.cmt_path ^ ".cmti"))
  then
    [
      Finding.make ~pass:"lint" ~code:"missing-mli" ~file:src ~line:0 ~func:""
        (Printf.sprintf "%s: library module without an interface file (.mli)"
           src);
    ]
  else []

let is_lib (m : Cmt_load.module_info) =
  String.length m.Cmt_load.source >= 4
  && String.sub m.Cmt_load.source 0 4 = "lib/"

let check mods =
  List.sort Finding.compare
    (List.concat_map
       (fun m -> ignored_result m @ if is_lib m then missing_mli m else [])
       mods)
