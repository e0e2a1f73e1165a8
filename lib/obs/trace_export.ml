open O2_simcore
open O2_runtime

type clock = Cycles of { ghz : float } | Wall_ns

type view = {
  capture : Telemetry.t;
  clock : clock;
  process : string;
  track : int -> string;
  obj_name : int -> string;
  occupancy : Occupancy.t option;
}

let object_name machine addr =
  match Memsys.object_at (Machine.memory machine) ~addr with
  | Some e -> e.Memsys.name
  | None -> Printf.sprintf "op@0x%x" addr

let of_recorder ?occupancy r =
  let machine = Recorder.machine r in
  let cores = Config.cores (Machine.cfg machine) in
  {
    capture = Recorder.capture r;
    clock = Cycles { ghz = (Machine.cfg machine).Config.ghz };
    process = "o2sim simulated machine";
    track =
      (fun i -> if i = cores then "monitor" else Printf.sprintf "core %d" i);
    obj_name = object_name machine;
    occupancy;
  }

let of_native tel =
  let domains = Telemetry.domains tel in
  {
    capture = tel;
    clock = Wall_ns;
    process = "o2sim native run";
    track =
      (fun i ->
        if i = domains then "coordinator" else Printf.sprintf "domain %d" i);
    obj_name = Printf.sprintf "obj%d";
    occupancy = None;
  }

(* ------------------------------------------------------------------ *)
(* Chrome / Perfetto trace_event JSON                                  *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* trace_event timestamps are microseconds. Cycles divide by the clock
   rate; wall-clock ns are rebased to the capture's first event. *)
let timebase clock (events : Native_tel.event array) =
  match clock with
  | Cycles { ghz } -> (0, ghz *. 1000.0)
  | Wall_ns ->
      let t0 = if Array.length events > 0 then events.(0).Native_tel.ts else 0 in
      (t0, 1000.0)

let tracks v =
  if Telemetry.enabled v.capture then Telemetry.domains v.capture + 1 else 0

let to_buffer v buf =
  let events = Native_tel.merged_events v.capture in
  let spans, incomplete = Native_tel.spans_of_events events in
  let origin, per_us = timebase v.clock events in
  let us ts = float_of_int (ts - origin) /. per_us in
  let dur d = float_of_int (max d 0) /. per_us in
  let name obj = escape (v.obj_name obj) in
  let first = ref true in
  let event fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf "    ";
        Buffer.add_string buf s)
      fmt
  in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n";
  event
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": \
     {\"name\": \"%s\"}}"
    (escape v.process);
  for t = 0 to tracks v - 1 do
    event
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %d, \
       \"args\": {\"name\": \"%s\"}}"
      t
      (escape (v.track t));
    event
      "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 0, \"tid\": \
       %d, \"args\": {\"sort_index\": %d}}"
      t t
  done;
  (* Op spans on the executing track. *)
  List.iter
    (fun (s : Native_tel.span) ->
      event
        "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": \"X\", \"pid\": 0, \
         \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"token\": %d, \
         \"class\": \"%s\", \"submit_track\": %d, \"queue\": %d, \
         \"migrate\": %d, \"exec\": %d%s}}"
        (name s.obj) s.exec_sink (us s.start_ts)
        (dur (Native_tel.exec s))
        s.token
        (Native_tel.class_name (Native_tel.classify s))
        s.submit_sink (Native_tel.queue s) (Native_tel.migrate s)
        (Native_tel.exec s)
        (if s.tid >= 0 then Printf.sprintf ", \"tid\": %d" s.tid else ""))
    spans;
  (* Flow arrows: each Ship_in pairs with the oldest unmatched Ship_out of
     the same token between the same two tracks (token -1: moves outside
     any op). Outs are queued first, so equal-timestamp ties in the merge
     cannot put an arrival ahead of its departure. *)
  let outs = Hashtbl.create 64 in
  Array.iter
    (fun (e : Native_tel.event) ->
      if e.kind = Telemetry.Ship_out then begin
        let key = (e.a, e.sink, e.c) in
        match Hashtbl.find_opt outs key with
        | Some q -> Queue.push e.ts q
        | None ->
            let q = Queue.create () in
            Queue.push e.ts q;
            Hashtbl.add outs key q
      end)
    events;
  let flow = ref 0 in
  Array.iter
    (fun (e : Native_tel.event) ->
      if e.kind = Telemetry.Ship_in then
        match Hashtbl.find_opt outs (e.a, e.c, e.sink) with
        | Some q when not (Queue.is_empty q) ->
            incr flow;
            let label = if e.a >= 0 then "ship " ^ name e.b else "migrate" in
            event
              "{\"name\": \"%s\", \"cat\": \"migration\", \"ph\": \"s\", \
               \"id\": %d, \"pid\": 0, \"tid\": %d, \"ts\": %.3f}"
              label !flow e.c
              (us (Queue.pop q));
            event
              "{\"name\": \"%s\", \"cat\": \"migration\", \"ph\": \"f\", \
               \"bp\": \"e\", \"id\": %d, \"pid\": 0, \"tid\": %d, \"ts\": \
               %.3f}"
              label !flow e.sink (us e.ts)
        | _ -> ())
    events;
  (* Scheduler life straight off the merged stream: parked windows,
     steals, monitor instants, decisions, inbox batch counters. *)
  let park_since = Array.make (tracks v) (-1) in
  Array.iter
    (fun (e : Native_tel.event) ->
      match e.kind with
      | Telemetry.Park -> park_since.(e.sink) <- e.ts
      | Telemetry.Wake ->
          let p = park_since.(e.sink) in
          if p >= 0 then begin
            park_since.(e.sink) <- -1;
            event
              "{\"name\": \"parked\", \"cat\": \"idle\", \"ph\": \"X\", \
               \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}"
              e.sink (us p)
              (dur (e.ts - p))
          end
      | Telemetry.Steal ->
          event
            "{\"name\": \"steal from %d\", \"cat\": \"steal\", \"ph\": \
             \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \
             \"args\": {\"victim\": %d}}"
            e.a e.sink (us e.ts) e.a
      | Telemetry.Inbox_batch ->
          event
            "{\"name\": \"inbox %s\", \"ph\": \"C\", \"pid\": 0, \"ts\": \
             %.3f, \"args\": {\"tasks\": %d}}"
            (escape (v.track e.sink))
            (us e.ts) e.a
      | Telemetry.Rebalance ->
          event
            "{\"name\": \"rebalance\", \"cat\": \"monitor\", \"ph\": \"i\", \
             \"s\": \"g\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"args\": \
             {\"moves\": %d, \"demotions\": %d}}"
            e.sink (us e.ts) e.a e.b
      | Telemetry.Quiesce ->
          event
            "{\"name\": \"quiesce\", \"cat\": \"monitor\", \"ph\": \"i\", \
             \"s\": \"g\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f}"
            e.sink (us e.ts)
      | Telemetry.Decision ->
          event
            "{\"name\": \"decision/%s\", \"cat\": \"decision\", \"ph\": \
             \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \
             \"args\": {\"object\": \"%s\"}}"
            (Recorder.decision_name e.a)
            e.c (us e.ts) (name e.b)
      | _ -> ())
    events;
  (* Occupancy counter tracks: one "C" series per cache, so Perfetto
     draws resident lines and distinct objects next to the op spans. *)
  Option.iter
    (fun occ ->
      let n = Occupancy.cache_count occ in
      List.iter
        (fun (s : Occupancy.sample) ->
          for ci = 0 to n - 1 do
            event
              "{\"name\": \"occ/%s\", \"ph\": \"C\", \"pid\": 0, \"ts\": \
               %.3f, \"args\": {\"lines\": %d, \"objects\": %d}}"
              (escape (Occupancy.label occ ci))
              (us s.Occupancy.at) s.Occupancy.lines.(ci) s.Occupancy.objs.(ci)
          done)
        (Occupancy.samples occ))
    v.occupancy;
  Buffer.add_string buf "\n  ],\n";
  let dropped = Telemetry.total_dropped v.capture in
  let time_unit, clock, extra =
    match v.clock with
    | Cycles { ghz } ->
        ("simulated cycles", "virtual", Printf.sprintf ", \"ghz\": %.2f" ghz)
    | Wall_ns -> ("wall-clock ns", "CLOCK_MONOTONIC", "")
  in
  Printf.ksprintf (Buffer.add_string buf)
    "  \"displayTimeUnit\": \"ms\",\n\
    \  \"otherData\": {\"tracks\": %d, \"sample\": %d, \"events_retained\": \
     %d, \"dropped_events\": %d, \"spans_complete\": %d, \
     \"spans_incomplete\": %d%s%s, \"time_unit\": \"%s\", \"clock\": \
     \"%s\"}\n"
    (tracks v)
    (Telemetry.sample v.capture)
    (Array.length events) dropped (List.length spans) incomplete extra
    (match v.occupancy with
    | None -> ""
    | Some occ ->
        Printf.sprintf ", \"occupancy_samples\": %d, \"occupancy_dropped\": %d"
          (List.length (Occupancy.samples occ))
          (Occupancy.samples_dropped occ))
    time_unit clock;
  Buffer.add_string buf "}\n"

let to_string v =
  let buf = Buffer.create 65536 in
  to_buffer v buf;
  Buffer.contents buf

let write_file v ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

(* ------------------------------------------------------------------ *)
(* ASCII timeline: a screenshot-equivalent for docs and terminals      *)

let ascii_timeline ?(width = 72) v =
  let events = Native_tel.merged_events v.capture in
  let spans, _ = Native_tel.spans_of_events events in
  let lanes_n = max (tracks v - 1) 0 in
  let lo, hi =
    let bounds (lo, hi) t = (min lo t, max hi t) in
    let acc =
      List.fold_left
        (fun acc (s : Native_tel.span) ->
          bounds (bounds acc s.submit_ts) s.end_ts)
        (max_int, min_int) spans
    in
    Array.fold_left
      (fun acc (e : Native_tel.event) ->
        match e.kind with
        | Telemetry.Ship_out | Telemetry.Ship_in | Telemetry.Rebalance ->
            bounds acc e.ts
        | _ -> acc)
      acc events
  in
  if lo > hi then "(no events recorded)\n"
  else begin
    let range = max 1 (hi - lo) in
    let col t = min (width - 1) ((t - lo) * width / range) in
    let lanes = Array.init lanes_n (fun _ -> Bytes.make width '.') in
    let monitor = Bytes.make width '.' in
    List.iter
      (fun (s : Native_tel.span) ->
        if s.exec_sink < lanes_n then
          for c = col s.start_ts to col s.end_ts do
            Bytes.set lanes.(s.exec_sink) c '#'
          done)
      spans;
    (* Execution takes precedence: a move mark only fills a column in
       which its lane executed nothing, so a busy lane stays [#]. *)
    let mark lane ts c =
      if Bytes.get lanes.(lane) (col ts) = '.' then
        Bytes.set lanes.(lane) (col ts) c
    in
    Array.iter
      (fun (e : Native_tel.event) ->
        match e.kind with
        | Telemetry.Ship_out when e.sink < lanes_n -> mark e.sink e.ts '>'
        | Telemetry.Ship_in when e.sink < lanes_n -> mark e.sink e.ts '<'
        | Telemetry.Rebalance -> Bytes.set monitor (col e.ts) 'R'
        | _ -> ())
      events;
    let origin, _ = timebase v.clock events in
    let what, unit_ =
      match v.clock with
      | Cycles _ -> ("virtual time", "cycles")
      | Wall_ns -> ("wall-clock", "ns")
    in
    let names = List.init lanes_n v.track @ [ "monitor" ] in
    let label_w = List.fold_left (fun w n -> max w (String.length n)) 0 names in
    let buf = Buffer.create ((lanes_n + 3) * (width + 16)) in
    Printf.ksprintf (Buffer.add_string buf)
      "%s %d..%d %s; one column ~ %d %s\n\
       (# op executing, > migration out, < migration in, R monitor period)\n"
      what (lo - origin) (hi - origin) unit_ (range / width) unit_;
    List.iteri
      (fun i name ->
        Printf.ksprintf (Buffer.add_string buf) "%-*s |%s|\n" label_w name
          (Bytes.to_string (if i < lanes_n then lanes.(i) else monitor)))
      names;
    Buffer.contents buf
  end
