(* Raw-primitive pass: the typedtree port of the old textual lint rules.
   Everything outside the domain-pool shim must go through the runtime's
   own abstractions — no direct [Mutex]/[Domain] use — and [Obj.magic]
   is banned everywhere. Matching on resolved paths instead of source
   text means aliases, [open]s, and comments cannot fool the rule. *)

open Typedtree

(* The repo's two concurrency shims: domain_pool.ml parallelises whole
   independent cells; native_pool.ml holds the native backend's worker
   domains and park/wake protocol. Raw primitives live nowhere else. *)
let default_allowlist =
  [ "lib/runtime/domain_pool.ml"; "lib/native/native_pool.ml" ]

(* A use of [Mod.fn] where some non-final path component is one of the
   raw modules. Matching on components (not the head) catches both
   [Domain.spawn] and [Stdlib.Domain.DLS.get]. *)
let raw_module p =
  let comps = Cmt_load.path_components p in
  let rec scan = function
    | [ _ ] | [] -> None
    | "Mutex" :: _ -> Some ("raw-mutex", "Mutex")
    | "Domain" :: _ -> Some ("raw-domain", "Domain")
    | "Condition" :: _ -> Some ("raw-condition", "Condition")
    | _ :: tl -> scan tl
  in
  scan comps

let is_obj_magic p =
  match List.rev (Cmt_load.path_components p) with
  | "magic" :: "Obj" :: _ -> true
  | _ -> false

let check_module ?(allowlist = default_allowlist) (m : Cmt_load.module_info) =
  let allowed = List.mem m.Cmt_load.source allowlist in
  let out = ref [] in
  let add ~code ~line msg =
    out :=
      Finding.make ~pass:"raw" ~code ~file:m.Cmt_load.source ~line ~func:""
        msg
      :: !out
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        if is_obj_magic p then
          add ~code:"obj-magic" ~line:(Expr_scan.loc_line e)
            "Obj.magic subverts the type system"
        else if not allowed then begin
          match raw_module p with
          | Some (code, what) ->
              add ~code ~line:(Expr_scan.loc_line e)
                (Printf.sprintf
                   "raw %s use (%s) outside the domain-pool shim; go through \
                    O2_runtime"
                   what (Cmt_load.path_name p))
          | None -> ()
        end
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter m.Cmt_load.structure;
  List.sort Finding.compare !out

let check ?allowlist mods =
  List.sort Finding.compare (List.concat_map (check_module ?allowlist) mods)

(* Whole-tree only: an allowlisted path that no scanned module comes
   from is a stale entry (its file was deleted or moved). *)
let check_allowlist ?(allowlist = default_allowlist) mods =
  List.filter_map
    (fun path ->
      if List.exists (fun (m : Cmt_load.module_info) -> m.Cmt_load.source = path) mods
      then None
      else
        Some
          (Finding.make ~pass:"raw" ~code:"allowlist-missing" ~file:path
             ~line:0 ~func:""
             (Printf.sprintf
                "raw-primitive allowlist names %s but no scanned module has \
                 that source"
                path)))
    allowlist
