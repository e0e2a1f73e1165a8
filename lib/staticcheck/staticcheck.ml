(* Driver: load every library .cmt dune produced, run the four passes,
   and render the combined report as text or JSON. *)

type report = {
  findings : Finding.t list;
  modules_scanned : int;
  manifest_functions : int;
  listeners_checked : int;
}

let listener_count mods =
  List.fold_left
    (fun acc (m : Cmt_load.module_info) ->
      let src = m.Cmt_load.source in
      if String.length src >= 8 && String.sub src 0 8 = "lib/obs/" then
        acc + List.length (Effect_check.listeners m)
      else acc)
    0 mods

let run_on_modules ?manifest ?allowlist mods =
  let findings =
    Alloc_check.check ?manifest mods
    @ Effect_check.check mods
    @ Lock_check.check mods
    @ Raw_use.check ?allowlist mods
  in
  {
    findings = List.sort_uniq Finding.compare findings;
    modules_scanned = List.length mods;
    manifest_functions =
      Manifest.total_functions
        (match manifest with Some m -> m | None -> Manifest.default);
    listeners_checked = listener_count mods;
  }

(* A whole-tree scan also reports stale manifest and allowlist entries;
   [run_on_modules] sees fixture subsets, where absence means nothing. *)
let run ?build_dir ?manifest ?allowlist ~root () =
  match Cmt_load.load_tree ?build_dir ~root () with
  | Error e -> Error e
  | Ok mods ->
      let r = run_on_modules ?manifest ?allowlist mods in
      let stale =
        Alloc_check.check_manifest_modules ?manifest mods
        @ Raw_use.check_allowlist ?allowlist mods
      in
      Ok
        {
          r with
          findings = List.sort_uniq Finding.compare (stale @ r.findings);
        }

let pp_report ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  Format.fprintf ppf
    "o2staticcheck: %d finding%s (%d modules, %d manifest functions, %d \
     listeners)@."
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    r.modules_scanned r.manifest_functions r.listeners_checked

let report_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (Finding.to_json f))
    r.findings;
  if r.findings <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"modules_scanned\": %d,\n  \"manifest_functions\": %d,\n  \
        \"listeners_checked\": %d,\n  \"total\": %d\n}\n"
       r.modules_scanned r.manifest_functions r.listeners_checked
       (List.length r.findings));
  Buffer.contents buf
