(* o2staticcheck: typedtree passes over the repo's own .cmt files.

   Reads the trees `dune build @check` leaves under _build, runs the
   allocation / effect-freedom / lock-discipline / raw-primitive passes
   and the ignored-result / missing-mli lint rules, and prints findings
   as text or JSON. Exit 1 on findings, 2 when no
   build tree is found — a CI gate must not silently pass because the
   cmts were never built. *)

open Cmdliner

let run root build_dir json json_out exit_zero =
  let build_dir = if build_dir = "" then None else Some build_dir in
  match O2_staticcheck.Staticcheck.run ?build_dir ~root () with
  | Error e ->
      Printf.eprintf "o2staticcheck: %s\n" e;
      2
  | Ok report ->
      let js = O2_staticcheck.Staticcheck.report_to_json report in
      (match json_out with
      | "" -> ()
      | path ->
          let oc = open_out path in
          output_string oc js;
          close_out oc);
      if json then print_string js
      else
        Format.printf "%a" O2_staticcheck.Staticcheck.pp_report report;
      if report.O2_staticcheck.Staticcheck.findings = [] || exit_zero then 0
      else 1

let root_arg =
  let doc =
    "Directory to search for .cmt files (a source root containing \
     _build/default, or a build tree itself)."
  in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let build_dir_arg =
  let doc = "Explicit build tree (overrides discovery under $(b,--root))." in
  Arg.(value & opt string "" & info [ "build-dir" ] ~docv:"DIR" ~doc)

let json_arg =
  let doc = "Print the report as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let json_out_arg =
  let doc = "Also write the JSON report to $(docv)." in
  Arg.(value & opt string "" & info [ "json-out" ] ~docv:"FILE" ~doc)

let exit_zero_arg =
  let doc =
    "Exit 0 even with findings (for artifact-producing runs that must \
     not gate)."
  in
  Arg.(value & flag & info [ "exit-zero" ] ~doc)

let cmd =
  let doc =
    "typedtree-based allocation, effect, lock-discipline and lint analysis"
  in
  Cmd.v
    (Cmd.info "o2staticcheck" ~version:"1.0.0" ~doc)
    Term.(
      const run $ root_arg $ build_dir_arg $ json_arg $ json_out_arg
      $ exit_zero_arg)

let () = exit (Cmd.eval' cmd)
