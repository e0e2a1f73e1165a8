(* The simulator workloads: Figure 4 cells on the serial engine, built and
   driven through the layers' public functions exactly as
   [O2_experiments.Harness.run] drives them, with host timing around each
   call. *)

open O2_simcore
module Engine = O2_runtime.Engine
module Dw = O2_workload.Dir_workload

type cell = {
  label : string;
  kb : int;
  coretime : bool;  (** [Policy.default] when true, [Policy.baseline] otherwise. *)
  spec : Dw.spec;
  warmup : int;  (** Simulated cycles before the measured window. *)
  measure : int;  (** Simulated cycles measured. *)
  oscillation : O2_experiments.Harness.oscillation option;
}

let policy c =
  if c.coretime then Coretime.Policy.default else Coretime.Policy.baseline

(* Figure 4's cell shape (Figure4.sweep): warm-up grows with the data so
   caches fill and promotion converges before the window opens; the
   oscillating figure measures 1.5x longer so whole phase cycles average
   out. [div] shrinks every horizon (4 is Figure 4's quick mode, where the
   oscillation period is Figure 4's 10 M cycles). *)
let cells ~fig4b ~div ~seed =
  let sizes = if fig4b then [ 8192; 16384 ] else [ 1024; 8192; 16384 ] in
  let oscillation =
    if fig4b then
      Some { O2_experiments.Figure4.oscillation_default with period = 40_000_000 / div }
    else None
  in
  let measure = (if fig4b then 60_000_000 else 40_000_000) / div in
  List.concat_map
    (fun kb ->
      let spec = Dw.spec_for_data_kb ~kb ~seed () in
      let warmup = (40_000_000 + (kb * 2500)) / div in
      List.map
        (fun coretime ->
          {
            label =
              Printf.sprintf "%dMB/%s" (kb / 1024)
                (if coretime then "coretime" else "baseline");
            kb;
            coretime;
            spec;
            warmup;
            measure;
            oscillation;
          })
        [ false; true ])
    sizes

(* Everything the benchmark reads back from one cell. The first block
   mirrors [Harness.point] field for field (the smoke test compares them);
   the rest feeds the per-layer metrics. *)
type result = {
  ops : int;  (** Resolutions completed in the measured window. *)
  kres_per_sec : float;  (** Simulated, thousands per simulated second. *)
  promotions : int;
  op_migrations : int;
  rebalancer_moves : int;
  rebalancer_demotions : int;
  dram_loads : int;
  remote_hits : int;
  spin_cycles : int;
  avg_busy : float;
  (* whole cell *)
  cell_ops : int;  (** Resolutions completed, warm-up plus window. *)
  loads : int;
  events : int;  (** Engine events, warm-up plus window. *)
  window_events : int;
  (* measured window *)
  w_loads : int;
  w_l1 : int;
  w_l2 : int;
  w_l3 : int;
  busy_cycles : int;
  idle_cycles : int;
  cycles : int;  (** [measure] x cores: the window's simulated core-cycles. *)
  seconds_window : float;  (** Simulated. *)
  threads : int;  (** Live lookup threads: the closed loop's population. *)
  ghz : float;  (** Simulated core clock. *)
  (* host time *)
  setup_ns : int;
  build_ns : int;
  run_ns : int;  (** Inside [Engine.run], warm-up plus window. *)
  calls : int array;  (** Host ns of each [Engine.run] call, in order. *)
  window_run_ns : int;
  window_slices : (int * int) list;
      (** (simulated cycles, resolutions) per [Engine.run] call of the
          measured window. *)
  checks : (string * bool) list;
}

let sum f counters = Array.fold_left (fun acc c -> acc + f c) 0 counters
let ops_done machine = sum (fun c -> c.Counters.ops_completed) (Machine.all_counters machine)

(* Drive the engine to [until] in slices of [slice] simulated cycles,
   timing each [Engine.run] call. Stopping at a horizon and resuming is
   exact (the engine's queue order is untouched), so the cell's simulated
   results do not depend on the slice length. [calls] receives the host ns
   of every call, [slices] the (simulated cycles, resolutions) of every call
   that completed at least one resolution; a call that completed none is
   folded into the next one. *)
let run_to engine machine ~slice ~until ~calls ~slices =
  let pending_cycles = ref 0 and pending_ops = ref 0 in
  let t = ref (Engine.now engine) in
  while !t < until do
    let stop = min until (!t + slice) in
    let before = ops_done machine in
    let t0 = Common.now_ns () in
    Common.Span.wrap "Engine.run" (fun () -> Engine.run ~until:stop engine);
    let ns = Common.now_ns () - t0 in
    calls := ns :: !calls;
    pending_cycles := !pending_cycles + (stop - !t);
    pending_ops := !pending_ops + (ops_done machine - before);
    if !pending_ops > 0 then begin
      slices := (!pending_cycles, !pending_ops) :: !slices;
      pending_cycles := 0;
      pending_ops := 0
    end;
    t := stop
  done

(* Every name the lookup threads draw (f0.dat .. f<n-1>.dat in every
   directory) must resolve; the threads discard their results, so the
   benchmark checks the volume they resolve against instead. *)
let names_resolve w =
  let spec = Dw.spec w in
  let fs = Dw.fs w in
  let n = spec.Dw.entries_per_dir in
  let index = Hashtbl.create n in
  for k = 0 to n - 1 do
    Hashtbl.replace index (O2_fs.Fat_name.to_83_exn (Printf.sprintf "f%d.dat" k)) k
  done;
  let resolves d =
    let seen = Array.make n false in
    List.iter
      (fun e ->
        match Hashtbl.find_opt index e.O2_fs.Fat_types.name with
        | Some k -> seen.(k) <- true
        | None -> ())
      (O2_fs.Fat.readdir fs (Dw.directory w d));
    Array.for_all Fun.id seen
  in
  let ok = ref true in
  for d = 0 to spec.Dw.dirs - 1 do
    if not (resolves d) then ok := false
  done;
  !ok

let run_cell ~slice c =
  let t0 = Common.now_ns () in
  let machine = Common.Span.wrap "Machine.create" (fun () -> Machine.create Config.amd16) in
  let engine = Common.Span.wrap "Engine.create" (fun () -> Engine.create machine) in
  let ct =
    Common.Span.wrap "Coretime.create" (fun () ->
        Coretime.create ~policy:(policy c) engine ())
  in
  let tb = Common.now_ns () in
  let w = Common.Span.wrap "Dir_workload.build" (fun () -> Dw.build ct c.spec) in
  let t1 = Common.now_ns () in
  Common.Span.wrap "Dir_workload.spawn_threads" (fun () -> Dw.spawn_threads w);
  Option.iter
    (fun { O2_experiments.Harness.period; divisor } ->
      Common.Span.wrap "Phase.oscillate_active" (fun () ->
          O2_workload.Phase.oscillate_active engine w ~period ~divisor))
    c.oscillation;
  let calls = ref [] and slices = ref [] in
  run_to engine machine ~slice ~until:c.warmup ~calls ~slices;
  let warm_calls = List.length !calls in
  slices := [];
  let counters = Machine.all_counters machine in
  Common.Span.wrap "Engine.finalize_idle" (fun () -> Engine.finalize_idle engine);
  let snap = Array.map Counters.copy counters in
  let ev0 = Engine.events_processed engine in
  let st = Coretime.stats ct in
  let rb = Coretime.Rebalancer.stats (Coretime.rebalancer ct) in
  let p0 = st.Coretime.promotions and m0 = st.Coretime.op_migrations in
  let mv0 = rb.Coretime.Rebalancer.moves and dm0 = rb.Coretime.Rebalancer.demotions in
  run_to engine machine ~slice ~until:(c.warmup + c.measure) ~calls ~slices;
  Common.Span.wrap "Engine.finalize_idle" (fun () -> Engine.finalize_idle engine);
  let calls = Array.of_list (List.rev !calls) in
  let run_ns = Array.fold_left ( + ) 0 calls in
  let window_run_ns =
    Array.fold_left ( + ) 0 (Array.sub calls warm_calls (Array.length calls - warm_calls))
  in
  let delta = Array.map2 (fun c sn -> Counters.diff c ~since:sn) counters snap in
  let cfg = Machine.cfg machine in
  let ops = sum (fun c -> c.Counters.ops_completed) delta in
  let seconds = float_of_int c.measure /. (cfg.Config.ghz *. 1e9) in
  let busy_sum =
    Array.fold_left
      (fun acc d ->
        acc
        +. float_of_int (d.Counters.busy_cycles + d.Counters.spin_cycles)
           /. float_of_int c.measure)
      0.0 delta
  in
  let check name f = (name, Common.Span.wrap name f) in
  let checks =
    [
      check "presence_consistent" (fun () -> Machine.check_presence_consistency machine = Ok ());
      check "object_table_accounting" (fun () ->
          Coretime.Object_table.check_accounting (Coretime.table ct) = Ok ());
      check "names_resolve" (fun () -> names_resolve w);
      ("window_resolutions", ops > 0);
    ]
  in
  {
    ops;
    kres_per_sec = float_of_int ops /. seconds /. 1000.0;
    promotions = st.Coretime.promotions - p0;
    op_migrations = st.Coretime.op_migrations - m0;
    rebalancer_moves = rb.Coretime.Rebalancer.moves - mv0;
    rebalancer_demotions = rb.Coretime.Rebalancer.demotions - dm0;
    dram_loads = sum (fun c -> c.Counters.dram_loads) delta;
    remote_hits = sum (fun c -> c.Counters.remote_hits) delta;
    spin_cycles = sum (fun c -> c.Counters.spin_cycles) delta;
    avg_busy = busy_sum /. float_of_int (Config.cores cfg);
    cell_ops = ops_done machine;
    loads = sum (fun c -> c.Counters.loads) counters;
    events = Engine.events_processed engine;
    window_events = Engine.events_processed engine - ev0;
    w_loads = sum (fun c -> c.Counters.loads) delta;
    w_l1 = sum (fun c -> c.Counters.l1_hits) delta;
    w_l2 = sum (fun c -> c.Counters.l2_hits) delta;
    w_l3 = sum (fun c -> c.Counters.l3_hits) delta;
    busy_cycles = sum (fun c -> c.Counters.busy_cycles) delta;
    idle_cycles = sum (fun c -> c.Counters.idle_cycles) delta;
    cycles = c.measure * Config.cores cfg;
    seconds_window = seconds;
    threads = Engine.live_threads engine;
    ghz = cfg.Config.ghz;
    setup_ns = t1 - t0;
    build_ns = t1 - tb;
    run_ns;
    window_run_ns;
    calls;
    window_slices = List.rev !slices;
    checks;
  }
