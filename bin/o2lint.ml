(* o2lint: the o2check analysis passes as a CI gate.

   Three stages, any diagnostic fails the run (exit 1):

   1. the o2staticcheck typedtree passes over the build's own .cmt files
      (allocation manifest, listener effect-freedom, lock discipline, raw
      primitives, and the ignored-result / missing-mli lint rules over
      lib/ and examples/);
   2. the dynamic checkers (lockset race detector, lock-order graph, O2
      invariants) over a quickstart-shaped workload: annotated operations
      on shared tables plus a lock-protected shared counter;
   3. the same checkers over a small Figure-4 configuration: the paper's
      directory-lookup benchmark with oscillating popularity, so the
      rebalancer runs and is audited while it works. Its FAT volume is
      fscked after the build and its object table audited at the end;
      either failing is a diagnostic.

   `dune build @lint` runs this over the tree. *)

open Cmdliner
open O2_simcore
open O2_runtime

let banner title = Printf.printf "== %s ==\n%!" title

(* Stage 2: the quickstart workload, bounded so every thread finishes and
   the end-of-life checks (open ops, locks held at exit) also run. *)
let check_quickstart () =
  let machine = Machine.create Config.amd16 in
  let engine = Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.default engine () in
  let check = O2_analysis.Analysis.attach ct in
  let mem = Machine.memory machine in
  let table_size = 64 * 1024 in
  let tables =
    Array.init 4 (fun i ->
        let ext =
          Memsys.alloc mem ~name:(Printf.sprintf "table%d" i) ~size:table_size
        in
        ignore
          (Coretime.register ct ~base:ext.Memsys.base ~size:table_size
             ~name:ext.Memsys.name ());
        ext.Memsys.base)
  in
  let counter = Memsys.alloc_isolated mem ~name:"ops-counter" ~size:8 in
  let counter_lock = Spinlock.create mem ~name:"ops-counter-lock" in
  let ncores = Engine.cores engine in
  for core = 0 to ncores - 1 do
    let rng = O2_workload.Rng.create ~seed:(0xC0DE + core) in
    ignore
      (Engine.spawn engine ~core ~name:(Printf.sprintf "worker%d" core)
         (fun () ->
           for _ = 1 to 60 do
             let table = tables.(O2_workload.Rng.int rng ~bound:4) in
             Coretime.ct_start ct table;
             ignore (Api.read ~addr:table ~len:table_size);
             Api.compute 500;
             (* a shared mutable word, correctly lock-protected *)
             Api.lock counter_lock;
             ignore (Api.read ~addr:counter.Memsys.base ~len:8);
             ignore (Api.write ~addr:counter.Memsys.base ~len:8);
             Api.unlock counter_lock;
             Coretime.ct_end ct
           done))
  done;
  Engine.run engine;
  O2_analysis.Analysis.finish check;
  let stats = Coretime.stats ct in
  Printf.printf
    "quickstart workload: %d ops, %d promotions, %d migrations, lock \
     acquired %d times (%d contended)\n"
    stats.Coretime.ops stats.Coretime.promotions stats.Coretime.op_migrations
    (Spinlock.acquisitions counter_lock)
    (Spinlock.contended counter_lock);
  check

(* Stage 3: a small Figure-4 point with oscillating popularity — the
   monitor moves objects while the checkers watch the table. Returns the
   checker plus the number of failed audits (volume structure, object
   table index), each a diagnostic of its own. *)
let check_fig4_small () =
  let machine = Machine.create Config.amd16 in
  let engine = Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.default engine () in
  let check = O2_analysis.Analysis.attach ct in
  let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb:1024 () in
  let w = O2_workload.Dir_workload.build ct spec in
  let failed = ref 0 in
  (* The bulk-built volume must be a well-formed FAT tree holding every
     file of every directory. *)
  let fsck = O2_fs.Fat_check.check (O2_workload.Dir_workload.fs w) in
  let files =
    spec.O2_workload.Dir_workload.dirs
    * spec.O2_workload.Dir_workload.entries_per_dir
  in
  if O2_fs.Fat_check.ok fsck && fsck.O2_fs.Fat_check.files = files then
    Format.printf "volume fsck: %a@." O2_fs.Fat_check.pp fsck
  else begin
    incr failed;
    Format.printf "volume fsck: FAILED (expected %d files): %a@." files
      O2_fs.Fat_check.pp fsck
  end;
  O2_workload.Dir_workload.spawn_threads w;
  O2_workload.Phase.oscillate_active engine w ~period:1_500_000 ~divisor:4;
  Engine.run ~until:6_000_000 engine;
  O2_analysis.Analysis.finish check;
  Printf.printf
    "figure-4 small (%d KB, %d dirs): %d lookups, %d rebalancer periods\n"
    (O2_workload.Dir_workload.data_kb spec)
    spec.O2_workload.Dir_workload.dirs
    (O2_workload.Dir_workload.lookups_done w)
    (Coretime.Rebalancer.stats (Coretime.rebalancer ct))
      .Coretime.Rebalancer.periods;
  (* The audit above ran after every Rebalanced event; finish with one
     explicit pass over the final table so the index cross-check (per-core
     assignment lists, active set vs ops_period) is visibly part of the
     gate even if the run ended between periods. *)
  (match Coretime.Object_table.check_accounting (Coretime.table ct) with
  | Ok () ->
      Printf.printf
        "object-table index audit: consistent (%d assigned, %d active)\n"
        (Coretime.Object_table.assigned_count (Coretime.table ct))
        (Coretime.Object_table.active_count (Coretime.table ct))
  | Error e ->
      incr failed;
      Printf.printf "object-table index audit: FAILED: %s\n" e);
  (check, !failed)

let print_dynamic name check =
  let open O2_analysis in
  if Analysis.is_clean check then begin
    Printf.printf "%s: clean\n" name;
    0
  end
  else begin
    Format.printf "%a" Analysis.pp check;
    Report.count (Analysis.report check) + Report.dropped (Analysis.report check)
  end

let run_lint root skip_source skip_dynamic =
  if not (Sys.file_exists (Filename.concat root "lib")) then begin
    (* A CI gate must not silently pass because of a typo'd path. *)
    Printf.eprintf "o2lint: %s/lib does not exist (wrong --root?)\n" root;
    exit 2
  end;
  let issues = ref 0 in
  if not skip_source then begin
    banner "static passes (typedtree: alloc / effect / lock / raw / lint)";
    (match O2_staticcheck.Staticcheck.run ~root () with
    | Error e ->
        (* Tolerated: a source-only checkout has no cmts. The dedicated
           @lint-source rule depends on @check, so in CI this branch is
           never taken silently. *)
        Printf.printf "static passes: skipped (%s)\n" e
    | Ok r ->
        Format.printf "%a" O2_staticcheck.Staticcheck.pp_report r;
        issues :=
          !issues + List.length r.O2_staticcheck.Staticcheck.findings)
  end;
  if not skip_dynamic then begin
    banner "dynamic checks: quickstart workload";
    issues := !issues + print_dynamic "quickstart" (check_quickstart ());
    banner "dynamic checks: figure-4 small";
    let check, failed_audits = check_fig4_small () in
    issues := !issues + failed_audits + print_dynamic "figure-4 small" check
  end;
  if !issues = 0 then begin
    print_endline "o2lint: no diagnostics";
    0
  end
  else begin
    Printf.printf "o2lint: %d diagnostic(s)\n" !issues;
    1
  end

let root_arg =
  let doc = "Repository root to scan (containing lib/ and examples/)." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let skip_source_arg =
  let doc = "Skip the static (typedtree) stage." in
  Arg.(value & flag & info [ "skip-source" ] ~doc)

let skip_dynamic_arg =
  let doc = "Skip the dynamic (simulation) checker stages." in
  Arg.(value & flag & info [ "skip-dynamic" ] ~doc)

let cmd =
  let doc =
    "o2check: race / invariant analysis over the O2 runtime, plus the \
     static passes"
  in
  Cmd.v
    (Cmd.info "o2lint" ~version:"1.0.0" ~doc)
    Term.(const run_lint $ root_arg $ skip_source_arg $ skip_dynamic_arg)

let () = exit (Cmd.eval' cmd)
