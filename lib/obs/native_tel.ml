(* Readers for a flight-recorder capture (O2_runtime.Telemetry), written
   by the native backend in wall-clock ns or by the simulator's Recorder
   in virtual cycles: the quiescent-side half of the design. Each sink's
   ring is nondecreasing by construction (the writer clamps its stamps),
   so the global order is a k-way cursor merge with no sort — pick the
   smallest head timestamp, ties to the lower sink id, which makes the
   merged order total and deterministic for a fixed capture.

   Span reconstruction joins the merged stream by token: Submit, Ship_out,
   Ship_in, Start and End each fill their part of one span. A token whose
   Submit, Start or End is missing (dropped by the ring bound, or the op
   was still running) is counted once as incomplete instead of being
   emitted half-built — drops are accounted, never papered over. *)

open O2_runtime

type event = {
  ts : int;
  sink : int;
  kind : Telemetry.kind;
  a : int;
  b : int;
  c : int;
}

let merged_events tel =
  let sinks =
    Array.init
      (if Telemetry.enabled tel then Telemetry.domains tel + 1 else 0)
      (fun d -> Telemetry.sink tel d)
  in
  let k = Array.length sinks in
  let cursor = Array.make (max k 1) 0 in
  let total =
    Array.fold_left (fun acc s -> acc + Telemetry.length s) 0 sinks
  in
  let out = Array.make total { ts = 0; sink = 0; kind = Quiesce; a = 0; b = 0; c = 0 } in
  for slot = 0 to total - 1 do
    let best = ref (-1) in
    let best_ts = ref max_int in
    for d = 0 to k - 1 do
      if cursor.(d) < Telemetry.length sinks.(d) then begin
        let ts = Telemetry.ts sinks.(d) cursor.(d) in
        if ts < !best_ts then begin
          best := d;
          best_ts := ts
        end
      end
    done;
    let d = !best in
    let i = cursor.(d) in
    cursor.(d) <- i + 1;
    out.(slot) <-
      {
        ts = Telemetry.ts sinks.(d) i;
        sink = d;
        kind = Telemetry.kind sinks.(d) i;
        a = Telemetry.arg0 sinks.(d) i;
        b = Telemetry.arg1 sinks.(d) i;
        c = Telemetry.arg2 sinks.(d) i;
      }
  done;
  out

type span = {
  token : int;
  obj : int;
  tid : int;
  submit_sink : int;
  submit_ts : int;
  ship_out_ts : int;  (* -1 when the op ran where it was submitted *)
  ship_in_ts : int;
  ship_dst : int;
  exec_sink : int;
  remote : bool;
  start_ts : int;
  end_ts : int;
}

let unstarted ~token ~obj ~tid ~sink ~ts =
  {
    token;
    obj;
    tid;
    submit_sink = sink;
    submit_ts = ts;
    ship_out_ts = -1;
    ship_in_ts = -1;
    ship_dst = -1;
    exec_sink = -1;
    remote = false;
    start_ts = -1;
    end_ts = -1;
  }

(* Join by token, then judge: each event fills its own fields whatever
   order the merge put equal timestamps in, and a token is complete or
   incomplete exactly once. *)
let spans_of_events events =
  let by_token : (int, span) Hashtbl.t = Hashtbl.create 256 in
  let ended = ref [] in
  let update token f =
    let s =
      match Hashtbl.find_opt by_token token with
      | Some s -> s
      | None -> unstarted ~token ~obj:(-1) ~tid:(-1) ~sink:(-1) ~ts:(-1)
    in
    Hashtbl.replace by_token token (f s)
  in
  Array.iter
    (fun e ->
      if e.a >= 0 then
        match e.kind with
        | Telemetry.Submit ->
            update e.a (fun s ->
                {
                  s with
                  obj = e.b;
                  tid = e.c;
                  submit_sink = e.sink;
                  submit_ts = e.ts;
                })
        | Telemetry.Ship_out ->
            update e.a (fun s ->
                { s with ship_out_ts = e.ts; ship_dst = e.c })
        | Telemetry.Ship_in ->
            update e.a (fun s -> { s with ship_in_ts = e.ts })
        | Telemetry.Start ->
            update e.a (fun s ->
                {
                  s with
                  start_ts = e.ts;
                  exec_sink = e.sink;
                  remote = e.c = 1;
                })
        | Telemetry.End ->
            ended := e.a :: !ended;
            update e.a (fun s -> { s with end_ts = e.ts })
        | _ -> ())
    events;
  let complete =
    List.filter_map
      (fun token ->
        let s = Hashtbl.find by_token token in
        if s.submit_ts >= 0 && s.start_ts >= 0 then Some s else None)
      (List.rev !ended)
  in
  (complete, Hashtbl.length by_token - List.length complete)

let spans tel = spans_of_events (merged_events tel)

let summary tel =
  let complete, incomplete = spans tel in
  let dropped = Telemetry.total_dropped tel in
  Printf.sprintf "%d spans (%d incomplete), %d events retained, %d dropped"
    (List.length complete) incomplete
    (Telemetry.total_events tel - dropped)
    dropped

type op_class = Home_hit | Remote | Migrated

let shipped s = s.ship_out_ts >= 0

let classify s =
  if shipped s then Migrated else if s.remote then Remote else Home_hit

let class_name = function
  | Home_hit -> "home-hit"
  | Remote -> "remote"
  | Migrated -> "migrated"

let latency s = s.end_ts - s.submit_ts
let queue s = (if shipped s then s.ship_out_ts else s.start_ts) - s.submit_ts
let migrate s = if shipped s then s.start_ts - s.ship_out_ts else 0
let exec s = s.end_ts - s.start_ts

(* ------------------------------------------------------------------ *)
(* Metrics import                                                      *)

let import_acc m name acc =
  if Telemetry.acc_total acc > 0 then
    Hist.merge_into ~into:(Metrics.hist m name)
      (Hist.of_raw
         ~counts:(Telemetry.acc_counts acc)
         ~total:(Telemetry.acc_total acc)
         ~sum:(Telemetry.acc_sum acc) ~min_v:(Telemetry.acc_min acc)
         ~max_v:(Telemetry.acc_max acc))

let metrics tel =
  let m = Metrics.create () in
  ignore
    (Telemetry.fold_sinks tel ~init:() ~f:(fun () s ->
         (* All hist names carry the unit: these are wall-clock
            nanoseconds, never simulator cycles. *)
         import_acc m "op_ns/home" (Telemetry.lat_home s);
         import_acc m "op_ns/shipped" (Telemetry.lat_shipped s);
         import_acc m "op_ns/ship_delay" (Telemetry.lat_ship_delay s);
         import_acc m "op_ns/exec" (Telemetry.lat_exec s);
         Metrics.incr m "steals" ~by:(Telemetry.steals s);
         Metrics.incr m "ships_out" ~by:(Telemetry.ships_out s);
         Metrics.incr m "ships_in" ~by:(Telemetry.ships_in s);
         Metrics.incr m "parks" ~by:(Telemetry.parks s);
         Metrics.incr m "wakes" ~by:(Telemetry.wakes s);
         Metrics.incr m "spawns" ~by:(Telemetry.spawns s);
         Metrics.incr m "inbox_batches" ~by:(Telemetry.inbox_batches s);
         Metrics.incr m "inbox_tasks" ~by:(Telemetry.inbox_tasks s);
         Metrics.incr m "ops_submitted" ~by:(Telemetry.ops_submitted s);
         Metrics.incr m "events_retained" ~by:(Telemetry.length s);
         Metrics.incr m "events_dropped" ~by:(Telemetry.dropped s)));
  m

(* ------------------------------------------------------------------ *)
(* Per-domain table                                                    *)

let domain_table tel =
  let open O2_stats in
  let t =
    Table.create
      ~columns:
        [
          ("domain", Table.Left);
          ("ops", Table.Right);
          ("steals", Table.Right);
          ("ships out", Table.Right);
          ("ships in", Table.Right);
          ("parks", Table.Right);
          ("inbox batches", Table.Right);
          ("inbox tasks", Table.Right);
          ("max batch", Table.Right);
          ("events", Table.Right);
          ("dropped", Table.Right);
        ]
  in
  let n = if Telemetry.enabled tel then Telemetry.domains tel else 0 in
  ignore
    (Telemetry.fold_sinks tel ~init:() ~f:(fun () s ->
         let id = Telemetry.sink_id s in
         let label = if id = n then "coordinator" else string_of_int id in
         Table.add_row t
           [
             label;
             string_of_int (Telemetry.ops_submitted s);
             string_of_int (Telemetry.steals s);
             string_of_int (Telemetry.ships_out s);
             string_of_int (Telemetry.ships_in s);
             string_of_int (Telemetry.parks s);
             string_of_int (Telemetry.inbox_batches s);
             string_of_int (Telemetry.inbox_tasks s);
             string_of_int (Telemetry.max_batch s);
             string_of_int (Telemetry.length s);
             string_of_int (Telemetry.dropped s);
           ]));
  Table.render t
