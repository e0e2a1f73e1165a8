open O2_simcore
open O2_runtime

type t = {
  capture : Telemetry.t;
  cores : Telemetry.sink array;
  monitor : Telemetry.sink;
  metrics_ : Metrics.t;
  machine_ : Machine.t;
  ops : (int, Native_tel.span list) Hashtbl.t;
      (* per-thread stack of open ops, innermost first; the top one is
         still pending (requested, not started) while its start_ts < 0 *)
  mutable last_counters : Counters.t array;
  mutable last_snap_time : int;
}

let metrics t = t.metrics_
let machine t = t.machine_
let capture t = t.capture

let m_ops = "ops"
let m_migrations = "migrations"
let m_mem_events = "mem/events"
let m_locks_acquired = "locks/acquired"
let m_locks_handoffs = "locks/handoffs"
let m_threads_spawned = "threads/spawned"
let m_threads_finished = "threads/finished"
let m_rebalance_periods = "rebalance/periods"
let m_rebalance_moves = "rebalance/moves"
let m_rebalance_demotions = "rebalance/demotions"
let h_latency = "op/latency"
let h_home_hit = "op/home_hit"
let h_remote = "op/remote"
let h_migrated = "op/migrated"
let h_queue = "op/queue"
let h_migrate = "op/migrate"
let h_exec = "op/exec"
let h_monitor_idle = "monitor/idle_pct"
let h_monitor_dram = "monitor/dram_loads"
let h_monitor_l2 = "monitor/l2_hits"

(* Decision kind codes: the record's [a] field and the counter each
   kind bumps. *)
let decisions =
  [|
    ("promote", "decisions/promoted");
    ("replicate", "decisions/replicated");
    ("move", "decisions/moved");
    ("demote", "decisions/demoted");
    ("displace", "decisions/displaced");
    ("release", "decisions/released");
  |]

let decision_name code = fst decisions.(code)

let decision_code = function
  | Probe.Promoted _ -> 0
  | Probe.Promotion_replicated _ -> 1
  | Probe.Moved _ -> 2
  | Probe.Demoted _ -> 3
  | Probe.Displaced _ -> 4
  | Probe.Released _ -> 5

let decision_obj = function
  | Probe.Promoted { obj_base; _ }
  | Probe.Promotion_replicated { obj_base; _ }
  | Probe.Moved { obj_base; _ }
  | Probe.Demoted { obj_base; _ }
  | Probe.Released { obj_base; _ } ->
      obj_base
  | Probe.Displaced { hot_base; _ } -> hot_base

(* The core a decision belongs to: where the action landed. *)
let decision_core = function
  | Probe.Promoted { core; _ }
  | Probe.Demoted { core; _ }
  | Probe.Displaced { core; _ }
  | Probe.Released { core; _ } ->
      core
  | Probe.Moved { to_core; _ } -> to_core
  | Probe.Promotion_replicated _ -> 0

let observe_span t (s : Native_tel.span) =
  let m = t.metrics_ in
  Metrics.incr m m_ops;
  let total = Native_tel.latency s in
  Metrics.observe m h_latency total;
  Metrics.observe m
    (match Native_tel.classify s with
    | Native_tel.Home_hit -> h_home_hit
    | Native_tel.Remote -> h_remote
    | Native_tel.Migrated -> h_migrated)
    total;
  Metrics.observe m h_queue (Native_tel.queue s);
  Metrics.observe m h_migrate (Native_tel.migrate s);
  Metrics.observe m h_exec (Native_tel.exec s)

let set_ops t tid = function
  | [] -> Hashtbl.remove t.ops tid
  | stack -> Hashtbl.replace t.ops tid stack

(* Mint the op's token on its requesting core and open its frame. *)
let submit t ~time ~core ~tid ~addr =
  let token =
    Telemetry.op_submit_at t.cores.(core) ~ts:time ~obj:addr ~arg:tid
  in
  Native_tel.unstarted ~token ~obj:addr ~tid ~sink:core ~ts:time

let ship t ~time ~token ~obj ~from_core ~to_core =
  Telemetry.record_at t.cores.(from_core) ~ts:time ~kind:Telemetry.Ship_out
    ~a:token ~b:obj ~c:to_core;
  Telemetry.record_at t.cores.(to_core) ~ts:time ~kind:Telemetry.Ship_in
    ~a:token ~b:obj ~c:from_core

(* Per-core utilisation snapshot for one monitor period. The rebalancer
   finalizes idle accounting before announcing the period, so idle_cycles
   deltas are meaningful here. *)
let snapshot_cores t ~now =
  let current = Machine.all_counters t.machine_ in
  let period = now - t.last_snap_time in
  Array.iteri
    (fun core c ->
      let d = Counters.diff c ~since:t.last_counters.(core) in
      let idle_frac =
        if period > 0 then
          float_of_int d.Counters.idle_cycles /. float_of_int period
        else 0.0
      in
      let prefix = Printf.sprintf "core%02d/" core in
      Metrics.set_gauge t.metrics_ (prefix ^ "idle_frac") idle_frac;
      Metrics.set_gauge t.metrics_ (prefix ^ "dram_loads")
        (float_of_int d.Counters.dram_loads);
      Metrics.set_gauge t.metrics_ (prefix ^ "l2_hits")
        (float_of_int d.Counters.l2_hits);
      Metrics.observe t.metrics_ h_monitor_idle
        (int_of_float (idle_frac *. 100.0));
      Metrics.observe t.metrics_ h_monitor_dram d.Counters.dram_loads;
      Metrics.observe t.metrics_ h_monitor_l2 d.Counters.l2_hits)
    current;
  t.last_counters <- Array.map Counters.copy current;
  t.last_snap_time <- now

let on_event t ev =
  let m = t.metrics_ in
  let stack tid = Option.value ~default:[] (Hashtbl.find_opt t.ops tid) in
  match ev with
  | Probe.Mem _ -> Metrics.incr m m_mem_events
  | Probe.Lock_acquired { contended; _ } ->
      Metrics.incr m m_locks_acquired;
      if contended then Metrics.incr m m_locks_handoffs
  | Probe.Lock_released _ -> ()
  | Probe.Thread_spawned _ -> Metrics.incr m m_threads_spawned
  | Probe.Thread_finished { tid; _ } ->
      Metrics.incr m m_threads_finished;
      Hashtbl.remove t.ops tid
  | Probe.Thread_moved { time; tid; from_core; to_core } -> (
      Metrics.incr m m_migrations;
      match stack tid with
      | f :: rest when f.start_ts < 0 && not (Native_tel.shipped f) ->
          (* the op's own move; a sampled-out op keeps it out of the ring *)
          set_ops t tid ({ f with ship_out_ts = time } :: rest);
          if f.token >= 0 then
            ship t ~time ~token:f.token ~obj:f.obj ~from_core ~to_core
      | _ -> ship t ~time ~token:(-1) ~obj:(-1) ~from_core ~to_core)
  | Probe.Op_requested { time; core; tid; addr } ->
      set_ops t tid (submit t ~time ~core ~tid ~addr :: stack tid)
  | Probe.Op_started { time; core; tid; addr; home } ->
      let f, rest =
        match stack tid with
        | f :: rest when f.start_ts < 0 -> (f, rest)
        | started ->
            (* no request seen (attached mid-op): zero queue and migrate *)
            (submit t ~time ~core ~tid ~addr, started)
      in
      let f =
        { f with start_ts = time; exec_sink = core; remote = home = None }
      in
      set_ops t tid (f :: rest);
      if f.token >= 0 then
        Telemetry.record_at t.cores.(core) ~ts:time ~kind:Telemetry.Start
          ~a:f.token ~b:f.obj
          ~c:(if f.remote then 1 else 0)
  | Probe.Op_ended { time; core; tid } -> (
      match stack tid with
      | f :: rest when f.start_ts >= 0 ->
          set_ops t tid rest;
          if f.token >= 0 then
            Telemetry.record_at t.cores.(core) ~ts:time ~kind:Telemetry.End
              ~a:f.token ~b:f.obj ~c:0;
          observe_span t { f with end_ts = time }
      | _ -> () (* unmatched end: the analysis layer's finding *))
  | Probe.Rebalanced { time; moves; demotions } ->
      Telemetry.record_at t.monitor ~ts:time ~kind:Telemetry.Rebalance ~a:moves
        ~b:demotions ~c:0;
      Metrics.incr m m_rebalance_periods;
      Metrics.incr ~by:moves m m_rebalance_moves;
      Metrics.incr ~by:demotions m m_rebalance_demotions;
      snapshot_cores t ~now:time
  | Probe.Decision { time; decision } ->
      let code = decision_code decision in
      Telemetry.record_at t.monitor ~ts:time ~kind:Telemetry.Decision ~a:code
        ~b:(decision_obj decision) ~c:(decision_core decision);
      Metrics.incr m (snd decisions.(code))

let attach ?(ring_capacity = 1 lsl 12) ?(sample = 1) engine =
  let machine_ = Engine.machine engine in
  let cores = Engine.cores engine in
  let capture = Telemetry.create ~ring_capacity ~sample ~domains:cores () in
  let t =
    {
      capture;
      cores = Telemetry.sink_array capture ~n:cores;
      monitor = Telemetry.coordinator capture;
      metrics_ = Metrics.create ();
      machine_;
      ops = Hashtbl.create 64;
      last_counters = Array.map Counters.copy (Machine.all_counters machine_);
      last_snap_time = 0;
    }
  in
  Probe.subscribe (Engine.probe engine) (on_event t);
  t
