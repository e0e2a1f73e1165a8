(* The examples/quickstart workload as a catalogue experiment: a small,
   bounded, deterministic run (every core does a fixed number of annotated
   table scans) that the observability flags can exercise end to end —
   `o2sim run quickstart --trace out.json --metrics` is the one-command
   flight-recorder demo, and the golden trace-shape test drives the same
   entry point. *)

open O2_simcore
open O2_runtime

type result = {
  ops : int;
  promotions : int;
  op_migrations : int;
  horizon : int;  (** Virtual cycles until every worker finished. *)
  recorder : O2_obs.Recorder.t option;
}

let iterations ~quick = if quick then 30 else 60

(* Same shape as examples/quickstart.ml, but bounded: [iterations] scans
   per core over four 64 KB tables, plus a lock-protected shared counter
   so the trace shows hand-offs too. *)
let execute ?recorder_of ?attach ~quick () =
  let machine = Machine.create Config.amd16 in
  let engine = Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.default engine () in
  let recorder = Option.map (fun f -> f engine) recorder_of in
  (match attach with Some f -> f engine | None -> ());
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
  let iters = iterations ~quick in
  for core = 0 to Engine.cores engine - 1 do
    let rng = O2_workload.Rng.create ~seed:(0xC0DE + core) in
    ignore
      (Engine.spawn engine ~core ~name:(Printf.sprintf "worker%d" core)
         (fun () ->
           for _ = 1 to iters do
             let table = tables.(O2_workload.Rng.int rng ~bound:4) in
             Coretime.ct_start ct table;
             ignore (Api.read ~addr:table ~len:table_size);
             Api.compute 500;
             Api.lock counter_lock;
             ignore (Api.read ~addr:counter.Memsys.base ~len:8);
             ignore (Api.write ~addr:counter.Memsys.base ~len:8);
             Api.unlock counter_lock;
             Coretime.ct_end ct
           done))
  done;
  Engine.run engine;
  let stats = Coretime.stats ct in
  {
    ops = stats.Coretime.ops;
    promotions = stats.Coretime.promotions;
    op_migrations = stats.Coretime.op_migrations;
    horizon = Engine.now engine;
    recorder;
  }

(* The cache-observatory attachments a run asked for. An occupancy tracker
   also rides along whenever a trace is requested, so the Perfetto export
   gets its counter tracks. *)
type observatory = {
  occupancy : O2_obs.Occupancy.t option;
  heat : O2_obs.Heat.t option;
  provenance : O2_obs.Provenance.t option;
}

let attach_observatory ~(obs : Harness.obs) engine =
  let want_occ = obs.Harness.occupancy || obs.Harness.trace <> None in
  {
    occupancy =
      (if want_occ then
         Some
           (O2_obs.Occupancy.attach ~interval:obs.Harness.occupancy_interval
              (Engine.machine engine))
       else None);
    heat = (if obs.Harness.heat then Some (O2_obs.Heat.attach engine) else None);
    provenance =
      (if obs.Harness.explain then Some (O2_obs.Provenance.attach engine)
       else None);
  }

let run ~quick ~obs:(obs : Harness.obs) ppf =
  Format.fprintf ppf
    "@.=== quickstart: bounded table-scan workload (%d cores x %d ops) \
     ===@.@."
    (Config.cores Config.amd16) (iterations ~quick);
  let want_recorder = obs.Harness.metrics || obs.Harness.trace <> None in
  let recorder_of =
    if want_recorder then
      Some
        (fun engine ->
          O2_obs.Recorder.attach ~sample:obs.Harness.trace_sample engine)
    else None
  in
  let observatory = ref None in
  let attach engine = observatory := Some (attach_observatory ~obs engine) in
  let r = execute ?recorder_of ~attach ~quick () in
  let observatory =
    match !observatory with Some o -> o | None -> assert false
  in
  Format.fprintf ppf "operations completed : %d@." r.ops;
  Format.fprintf ppf "objects promoted     : %d@." r.promotions;
  Format.fprintf ppf "operation migrations : %d@." r.op_migrations;
  Format.fprintf ppf "virtual horizon      : %d cycles@." r.horizon;
  (match r.recorder with
  | Some rec_ when obs.Harness.metrics ->
      Format.fprintf ppf "@.%s"
        (O2_obs.O2top.render
           ~capture:(O2_obs.Recorder.capture rec_)
           (O2_obs.Recorder.metrics rec_))
  | Some _ | None -> ());
  (match observatory.heat with
  | Some h ->
      Format.fprintf ppf "@.-- cache observatory: heat --@.%s"
        (O2_obs.Heat.render ~top:obs.Harness.heat_top h)
  | None -> ());
  (match observatory.occupancy with
  | Some o when obs.Harness.occupancy ->
      Format.fprintf ppf "@.-- cache observatory: occupancy --@.%s"
        (O2_obs.Occupancy.render o)
  | Some _ | None -> ());
  (match observatory.provenance with
  | Some p ->
      Format.fprintf ppf "@.%s" (O2_obs.Provenance.render p)
  | None -> ());
  match (r.recorder, obs.Harness.trace) with
  | Some rec_, Some path ->
      O2_obs.Trace_export.write_file
        (O2_obs.Trace_export.of_recorder ?occupancy:observatory.occupancy rec_)
        ~path;
      Format.fprintf ppf
        "trace written to %s (%s) — load in https://ui.perfetto.dev@." path
        (O2_obs.Native_tel.summary (O2_obs.Recorder.capture rec_))
  | _ -> ()

(* The o2explain report: the full observatory on the quickstart run —
   heat, occupancy, and every scheduler decision fully explained. *)
let explain ?(top = 10) ~quick ppf =
  let obs =
    {
      Harness.no_obs with
      Harness.occupancy = true;
      heat = true;
      heat_top = top;
      explain = true;
    }
  in
  Format.fprintf ppf
    "=== o2explain: cache observatory + decision provenance (quickstart, \
     %d cores x %d ops) ===@.@."
    (Config.cores Config.amd16) (iterations ~quick);
  let observatory = ref None in
  let attach engine = observatory := Some (attach_observatory ~obs engine) in
  let r = execute ~attach ~quick () in
  let { occupancy; heat; provenance } =
    match !observatory with Some o -> o | None -> assert false
  in
  Format.fprintf ppf
    "operations %d; promotions %d; op migrations %d; horizon %d cycles@."
    r.ops r.promotions r.op_migrations r.horizon;
  (match heat with
  | Some h -> Format.fprintf ppf "@.%s" (O2_obs.Heat.render ~top h)
  | None -> ());
  (match occupancy with
  | Some o -> Format.fprintf ppf "@.%s" (O2_obs.Occupancy.render o)
  | None -> ());
  match provenance with
  | Some p -> Format.fprintf ppf "@.%s" (O2_obs.Provenance.render p)
  | None -> ()
