(* The paper's motivating scenario (Sections 1-2): a web server whose
   bottleneck is resolving file names in a directory tree too large for
   any one core's cache [Veal & Foong 2007]. One thread per core resolves
   random names in an in-memory FAT volume; we run the same binary with
   and without CoreTime and report resolutions per second.

   The CoreTime run carries an O2 flight recorder: it prints the o2top
   latency/counter table and writes a Chrome trace_event JSON next to the
   working directory, loadable at https://ui.perfetto.dev.

     dune exec examples/webserver_lookup.exe [-- data_kb] *)

open O2_simcore
open O2_workload

let trace_path = "webserver_lookup.trace.json"

let run ?(record = false) ~label ~policy ~kb () =
  let machine = Machine.create Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let recorder =
    if record then Some (O2_obs.Recorder.attach engine) else None
  in
  let ct = Coretime.create ~policy engine () in
  let spec = Dir_workload.spec_for_data_kb ~kb () in
  let w = Dir_workload.build ct spec in
  Dir_workload.spawn_threads w;
  (* warm up 20 ms of virtual time, then measure 20 ms *)
  O2_runtime.Engine.run ~until:40_000_000 engine;
  let warm = Dir_workload.lookups_done w in
  O2_runtime.Engine.run ~until:80_000_000 engine;
  let ops = Dir_workload.lookups_done w - warm in
  let resolutions_per_sec =
    float_of_int ops /. Machine.seconds_of_cycles machine 40_000_000
  in
  Printf.printf "%-18s %8.0fk resolutions/s  (%d dirs, %d ops measured)\n%!"
    label
    (resolutions_per_sec /. 1000.)
    spec.Dir_workload.dirs ops;
  (match recorder with
  | None -> ()
  | Some r ->
      Printf.printf "\n-- o2top (%s) --\n%s%!" label
        (O2_obs.O2top.render (O2_obs.Recorder.metrics r));
      O2_obs.Trace_export.write_file (O2_obs.Trace_export.of_recorder r)
        ~path:trace_path;
      Printf.printf "trace: %s -> %s (open in https://ui.perfetto.dev)\n\n%!"
        (O2_obs.Native_tel.summary (O2_obs.Recorder.capture r))
        trace_path);
  resolutions_per_sec

let () =
  let kb = try int_of_string Sys.argv.(1) with _ -> 8192 in
  Printf.printf "web-server directory workload: %d KB of directory data\n" kb;
  Printf.printf "(per-chip L3 holds 2 MB; total on-chip memory is 16 MB)\n\n";
  let without_ct =
    run ~label:"without CoreTime" ~policy:Coretime.Policy.baseline ~kb ()
  in
  let with_ct =
    run ~record:true ~label:"with CoreTime" ~policy:Coretime.Policy.default
      ~kb ()
  in
  Printf.printf "\nCoreTime speedup: %.2fx\n" (with_ct /. without_ct)
