(* o2staticcheck against known-bad fixtures (test/fixtures/staticcheck):
   each violation class must produce exactly the expected diagnostic, the
   escape hatches must silence exactly what they claim, and the repo's
   own build tree must come back clean. *)

module SC = O2_staticcheck

(* The test binary runs from _build/default/test; the fixture library's
   cmts sit alongside it. Keep a source-tree fallback for direct runs. *)
let fixture_dir () =
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [
      "fixtures/staticcheck/.staticcheck_fixtures.objs/byte";
      "_build/default/test/fixtures/staticcheck/.staticcheck_fixtures.objs/byte";
    ]

let load_fixture short =
  match fixture_dir () with
  | None -> Alcotest.fail "fixture cmts not built (dune build test)"
  | Some dir -> (
      let path =
        Filename.concat dir ("staticcheck_fixtures__" ^ short ^ ".cmt")
      in
      match SC.Cmt_load.load path with
      | Some m -> m
      | None -> Alcotest.fail ("cannot load fixture cmt " ^ path))

let codes findings =
  List.sort compare (List.map (fun f -> f.SC.Finding.code) findings)

let funcs_with ~code findings =
  List.sort compare
    (List.filter_map
       (fun f ->
         if f.SC.Finding.code = code then Some f.SC.Finding.func else None)
       findings)

let test_alloc_fixture () =
  let m = load_fixture "Fx_alloc" in
  let manifest =
    [
      {
        SC.Manifest.module_ = "Fx_alloc";
        functions =
          [
            "boxed_pair"; "consing"; "closure_maker"; "annotated"; "clean";
            "does_not_exist";
          ];
      };
    ]
  in
  let fs = SC.Alloc_check.check_module ~manifest m in
  Alcotest.(check (list string))
    "one finding per allocating construct"
    [ "alloc-closure"; "alloc-construct"; "alloc-tuple"; "manifest-missing" ]
    (codes fs);
  Alcotest.(check (list string))
    "tuple blamed on boxed_pair" [ "boxed_pair" ]
    (funcs_with ~code:"alloc-tuple" fs);
  Alcotest.(check (list string))
    "cons blamed on consing" [ "consing" ]
    (funcs_with ~code:"alloc-construct" fs);
  Alcotest.(check (list string))
    "capture blamed on closure_maker" [ "closure_maker" ]
    (funcs_with ~code:"alloc-closure" fs);
  Alcotest.(check (list string))
    "missing manifest entry reported" [ "does_not_exist" ]
    (funcs_with ~code:"manifest-missing" fs)

let test_effect_fixture () =
  let m = load_fixture "Fx_listener" in
  Alcotest.(check int)
    "all three listeners discovered" 3
    (List.length (SC.Effect_check.listeners m));
  let fs = SC.Effect_check.check_module m in
  Alcotest.(check (list string))
    "print and Api flagged; parameter-rooted counter clean"
    [ "effect-api"; "effect-io" ] (codes fs)

let test_lock_fixture () =
  let m = load_fixture "Fx_lock" in
  let fs = SC.Lock_check.check_module m in
  Alcotest.(check (list string))
    "each discipline violation flagged once"
    [ "lock-alloc"; "lock-blocking"; "lock-leak"; "lock-underflow" ]
    (codes fs);
  List.iter
    (fun (code, func) ->
      Alcotest.(check (list string))
        (code ^ " blamed on " ^ func)
        [ func ]
        (funcs_with ~code fs))
    [
      ("lock-leak", "leak");
      ("lock-blocking", "blocking");
      ("lock-alloc", "alloc_under");
      ("lock-underflow", "underflow");
    ]

let test_raw_fixture () =
  let m = load_fixture "Fx_raw" in
  Alcotest.(check (list string))
    "raw mutex and Obj.magic flagged" [ "obj-magic"; "raw-mutex" ]
    (codes (SC.Raw_use.check_module m));
  Alcotest.(check (list string))
    "allowlisting the source keeps only Obj.magic" [ "obj-magic" ]
    (codes
       (SC.Raw_use.check_module ~allowlist:[ m.SC.Cmt_load.source ] m))

(* The lint rules: an ignored unit-returning call is caught through an
   [open] and fully qualified, but not in a string or around another
   callee; an interface silences missing-mli and its absence trips it. *)
let test_ignored_result_fixture () =
  let m = load_fixture "Fx_ignored" in
  let fs = SC.Lint_check.ignored_result m in
  Alcotest.(check (list string))
    "opened Api.lock and qualified Engine.run flagged"
    [ "ignored-result"; "ignored-result" ]
    (codes fs);
  Alcotest.(check (list int))
    "on the two offending lines" [ 8; 9 ]
    (List.map (fun f -> f.SC.Finding.line) fs)

let test_missing_mli_fixture () =
  Alcotest.(check (list string))
    "a module with an interface is clean" []
    (codes (SC.Lint_check.missing_mli (load_fixture "Fx_ignored")));
  Alcotest.(check (list string))
    "a module without one is flagged" [ "missing-mli" ]
    (codes (SC.Lint_check.missing_mli (load_fixture "Fx_no_mli")))

(* The lib/native diagnostic surface: an allocating steal loop and a
   closure-per-task dispatch must fire the alloc pass, a raw
   Domain.spawn outside the shims must fire the raw pass, and the
   dummy-sentinel steal must come back clean. *)
let test_native_fixture () =
  let m = load_fixture "Fx_native" in
  let manifest =
    [
      {
        SC.Manifest.module_ = "Fx_native";
        functions =
          [ "steal_boxed"; "dispatch_capturing"; "drain_consing"; "clean_steal" ];
      };
    ]
  in
  let fs = SC.Alloc_check.check_module ~manifest m in
  Alcotest.(check (list string))
    "boxed steal, consing drain and capturing dispatch flagged"
    [ "alloc-closure"; "alloc-construct"; "alloc-construct" ]
    (codes fs);
  Alcotest.(check (list string))
    "option boxing blamed on the steal loop; sentinel steal clean"
    [ "drain_consing"; "steal_boxed" ]
    (funcs_with ~code:"alloc-construct" fs);
  Alcotest.(check (list string))
    "closure blamed on dispatch" [ "dispatch_capturing" ]
    (funcs_with ~code:"alloc-closure" fs);
  Alcotest.(check (list string))
    "raw Domain.spawn flagged outside the shims" [ "raw-domain" ]
    (codes (SC.Raw_use.check_module m))

(* A whole-tree scan of the repo's own build. ".." is _build/default
   under dune runtest; "." covers running the binary by hand from a
   source root with _build/default beneath it. *)
let run_tree ?manifest ?allowlist () =
  match SC.Staticcheck.run ?manifest ?allowlist ~root:".." () with
  | Ok r -> Ok r
  | Error _ -> SC.Staticcheck.run ?manifest ?allowlist ~root:"." ()

(* The repo's own tree must be clean: every hot path either allocation-
   free or annotated, every listener effect-free, every lock balanced. *)
let test_clean_tree () =
  match run_tree () with
  | Error e -> Alcotest.fail ("clean-tree run failed to find cmts: " ^ e)
  | Ok r ->
      Alcotest.(check (list string))
        "no findings on the repo tree" []
        (List.map (Format.asprintf "%a" SC.Finding.pp) r.SC.Staticcheck.findings);
      Alcotest.(check bool)
        "a useful number of modules scanned" true
        (r.SC.Staticcheck.modules_scanned > 50);
      Alcotest.(check int)
        "whole manifest resolved"
        (SC.Manifest.total_functions SC.Manifest.default)
        r.SC.Staticcheck.manifest_functions;
      Alcotest.(check bool)
        "listeners were actually checked" true
        (r.SC.Staticcheck.listeners_checked > 0)

(* Stale entries: a manifest module that no longer exists and an
   allowlisted file that was deleted must each be reported by the
   whole-tree run, while the per-module check run on a fixture (which
   sees one module, not the tree) reports neither. *)
let test_stale_entries () =
  let manifest =
    { SC.Manifest.module_ = "No_such_module"; functions = [ "f"; "g" ] }
    :: SC.Manifest.default
  in
  let allowlist = "lib/no_such_file.ml" :: SC.Raw_use.default_allowlist in
  (match run_tree ~manifest ~allowlist () with
  | Error e -> Alcotest.fail ("tree run failed to find cmts: " ^ e)
  | Ok r ->
      let fs = r.SC.Staticcheck.findings in
      Alcotest.(check (list string))
        "exactly the two stale entries reported"
        [ "allowlist-missing"; "manifest-missing" ]
        (codes fs);
      Alcotest.(check (list string))
        "stale manifest module named" [ "No_such_module" ]
        (funcs_with ~code:"manifest-missing" fs);
      Alcotest.(check (list string))
        "stale allowlist path named" [ "lib/no_such_file.ml" ]
        (List.filter_map
           (fun f ->
             if f.SC.Finding.code = "allowlist-missing" then
               Some f.SC.Finding.file
             else None)
           fs);
      Alcotest.(check int)
        "stale functions still counted in the total"
        (SC.Manifest.total_functions SC.Manifest.default + 2)
        r.SC.Staticcheck.manifest_functions);
  let m = load_fixture "Fx_alloc" in
  Alcotest.(check (list string))
    "per-module run on a fixture stays quiet" []
    (codes
       (SC.Staticcheck.run_on_modules ~manifest ~allowlist [ m ])
         .SC.Staticcheck.findings)

let suite =
  [
    Alcotest.test_case "allocating hot path fixture" `Quick test_alloc_fixture;
    Alcotest.test_case "effectful listener fixture" `Quick test_effect_fixture;
    Alcotest.test_case "lock discipline fixture" `Quick test_lock_fixture;
    Alcotest.test_case "raw primitive fixture" `Quick test_raw_fixture;
    Alcotest.test_case "native backend fixture" `Quick test_native_fixture;
    Alcotest.test_case "ignored-result fixture" `Quick
      test_ignored_result_fixture;
    Alcotest.test_case "missing-mli fixture" `Quick test_missing_mli_fixture;
    Alcotest.test_case "repo tree is clean" `Quick test_clean_tree;
    Alcotest.test_case "stale manifest and allowlist entries" `Quick
      test_stale_entries;
  ]
