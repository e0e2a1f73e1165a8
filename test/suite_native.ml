(* The native backend: SPMC deque model + stress, inbox FIFO, pool
   shipping semantics, and the simulator-as-oracle cross-check. *)

open O2_native

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Deque: qcheck model test against a sequential reference.            *)
(* ------------------------------------------------------------------ *)

(* Reference: a list front..back. push appends at the back, pop takes
   the back, steal takes the front — the Chase–Lev contract when used
   sequentially (where no race can make steal/pop return a false miss). *)
module Model = struct
  type t = int list ref

  let create () : t = ref []
  let push m v = m := !m @ [ v ]

  let pop m =
    match List.rev !m with
    | [] -> -1
    | v :: rest ->
        m := List.rev rest;
        v

  let steal m =
    match !m with
    | [] -> -1
    | v :: rest ->
        m := rest;
        v

  let length m = List.length !m
end

let deque_op_gen =
  QCheck2.Gen.(frequency [ (3, pure `Push); (2, pure `Pop); (2, `Steal |> pure) ])

let prop_deque_matches_model =
  QCheck2.Test.make ~name:"Deque model: push/pop/steal = sequential reference"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 200) deque_op_gen)
    (fun ops ->
      (* Tiny initial capacity so growth is exercised constantly. *)
      let d = Deque.create ~capacity:2 ~dummy:(-1) () in
      let m = Model.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Push ->
              incr next;
              Deque.push d !next;
              Model.push m !next;
              true
          | `Pop -> Deque.pop d = Model.pop m
          | `Steal -> Deque.steal d = Model.steal m)
        ops
      && Deque.length d = Model.length m)

let test_deque_grow () =
  let d = Deque.create ~capacity:1 ~dummy:(-1) () in
  for i = 0 to 999 do
    Deque.push d i
  done;
  checki "length after 1000 pushes" 1000 (Deque.length d);
  (* Steal a prefix FIFO, pop the rest LIFO. *)
  for i = 0 to 99 do
    checki "steal is FIFO" i (Deque.steal d)
  done;
  for i = 999 downto 100 do
    checki "pop is LIFO" i (Deque.pop d)
  done;
  checkb "empty at the end" true (Deque.is_empty d);
  checki "pop on empty returns dummy" (-1) (Deque.pop d);
  checki "steal on empty returns dummy" (-1) (Deque.steal d)

(* Multi-domain stress: one owner pushing/popping, several thieves
   stealing concurrently; every pushed element must be taken exactly
   once across all participants. *)
let test_deque_stress () =
  let n = 20_000 in
  let thieves = 3 in
  let d = Deque.create ~dummy:(-1) () in
  let taken = Atomic.make 0 in
  let thief () =
    let mine = ref [] in
    while Atomic.get taken < n do
      let v = Deque.steal d in
      if v >= 0 then begin
        mine := v :: !mine;
        Atomic.incr taken
      end
      else Domain.cpu_relax ()
    done;
    !mine
  in
  let handles = Array.init thieves (fun _ -> Domain.spawn thief) in
  let owner_got = ref [] in
  for i = 0 to n - 1 do
    Deque.push d i;
    (* Interleave owner pops to hit the last-element CAS race. *)
    if i land 3 = 0 then begin
      let v = Deque.pop d in
      if v >= 0 then begin
        owner_got := v :: !owner_got;
        Atomic.incr taken
      end
    end
  done;
  let rec drain_rest () =
    if Atomic.get taken < n then begin
      let v = Deque.pop d in
      if v >= 0 then begin
        owner_got := v :: !owner_got;
        Atomic.incr taken
      end;
      drain_rest ()
    end
  in
  drain_rest ();
  let stolen = Array.to_list handles |> List.concat_map Domain.join in
  let all = List.sort compare (!owner_got @ stolen) in
  checki "every element taken exactly once" n (List.length all);
  List.iteri (fun i v -> checki "no loss, no duplication" i v) all;
  checkb "deque drained" true (Deque.is_empty d)

(* ------------------------------------------------------------------ *)
(* Inbox: MPSC delivery, per-producer FIFO.                            *)
(* ------------------------------------------------------------------ *)

let test_inbox_fifo () =
  let producers = 4 and per = 2_000 in
  let ib = Inbox.create ~dummy:(-1) () in
  let produce p () =
    for i = 0 to per - 1 do
      Inbox.push ib ((p * per) + i)
    done
  in
  let handles = Array.init producers (fun p -> Domain.spawn (produce p)) in
  let got = Array.make (producers * per) (-1) in
  let count = ref 0 in
  let record v =
    got.(!count) <- v;
    incr count
  in
  while !count < producers * per do
    if Inbox.drain_into ib record = 0 then Domain.cpu_relax ()
  done;
  Array.iter Domain.join handles;
  checkb "inbox empty after drain" true (Inbox.is_empty ib);
  (* Each producer's stream must arrive in its push order. *)
  let last = Array.make producers (-1) in
  Array.iter
    (fun v ->
      let p = v / per in
      checkb "per-producer FIFO preserved" true (v > last.(p));
      last.(p) <- v)
    got;
  Array.iteri
    (fun p l -> checki "producer fully delivered" ((p * per) + per - 1) l)
    last

(* ------------------------------------------------------------------ *)
(* Pool: shipping lands where directed; exceptions propagate; yield
   never loses work.                                                   *)
(* ------------------------------------------------------------------ *)

let test_pool_ship_lands_on_target () =
  let t = Native_pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let trail = Array.make 3 (-1) in
      Native_pool.spawn t ~core:0 ~name:"tourist" (fun () ->
          for d = 0 to 2 do
            O2_runtime.Api.ship_to d;
            trail.(d) <- Native_pool.current_domain t
          done);
      Native_pool.drain t;
      Array.iteri
        (fun d got -> checki "resumed on the shipped-to domain" d got)
        trail;
      checkb "coordinator is off-pool" true (Native_pool.current_domain t = -1))

let test_pool_exception_propagates () =
  let t = Native_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let fine = Atomic.make 0 in
      for c = 0 to 9 do
        Native_pool.spawn t ~core:(c mod 2) ~name:"ok" (fun () ->
            Atomic.incr fine)
      done;
      Native_pool.spawn t ~core:0 ~name:"bad" (fun () -> failwith "boom");
      (match Native_pool.drain t with
      | () -> Alcotest.fail "drain should re-raise the client failure"
      | exception Failure m -> check Alcotest.string "client error" "boom" m);
      checki "other clients still completed" 10 (Atomic.get fine);
      (* The pool stays usable for the next batch. *)
      Native_pool.spawn t ~core:1 ~name:"again" (fun () -> Atomic.incr fine);
      Native_pool.drain t;
      checki "pool survives an error batch" 11 (Atomic.get fine))

let test_pool_yield_and_scale () =
  let t = Native_pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let hits = Atomic.make 0 in
      for _c = 0 to 4 do
        Native_pool.spawn t ~core:0 ~name:"yielder" (fun () ->
            for _ = 1 to 3 do
              Atomic.incr hits;
              O2_runtime.Api.yield ()
            done)
      done;
      Native_pool.drain t;
      checki "yielding clients all finish" 15 (Atomic.get hits);
      checkb "telemetry counted the resumes" true
        (Native_pool.tasks_executed t >= 15))

(* Run [f] on its own domain and fail — instead of hanging the suite —
   if it has not returned within [seconds]. A timed-out [f] is left
   blocked; the process exits around it. *)
let within ~seconds what f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  match Atomic.get result with
  | None -> Alcotest.failf "%s did not return within %.0f s" what seconds
  | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error e -> raise e)

(* The per-worker park/wake handshake under churn: many short rounds of
   clients that bounce between domains, so workers keep going idle,
   spinning out or parking, and being woken by a ship or a fresh spawn.
   Most rounds run one client, so each ship is the only work in the
   pool and a lost wakeup cannot be rescued by a later post to the same
   worker: the continuation stays stranded in a sleeper's inbox and
   [drain] never returns. Every eighth round pauses long enough for the
   whole pool to park. At 4 domains on a 2-core host the pool is
   oversubscribed, so workers park without spinning. *)
let test_pool_no_lost_wakeup domains () =
  let t = Native_pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let rounds = 2_000 and hops = 12 in
      let clients r = if r land 3 = 0 then domains else 1 in
      let spawned = ref 0 and finished = Atomic.make 0 in
      within ~seconds:60.0 "ping-pong rounds" (fun () ->
          for r = 1 to rounds do
            spawned := !spawned + clients r;
            for c = 0 to clients r - 1 do
              Native_pool.spawn t ~core:(c mod domains) ~name:"ping-pong"
                (fun () ->
                  for h = 1 to hops do
                    O2_runtime.Api.ship_to ((c + h) mod domains)
                  done;
                  Atomic.incr finished)
            done;
            Native_pool.drain t;
            if r land 7 = 0 then Unix.sleepf 0.001
          done);
      checki "every client finished" !spawned (Atomic.get finished))

let test_pool_shutdown_parked () =
  let domains = 2 in
  let t = Native_pool.create ~domains () in
  Native_pool.spawn t ~core:0 ~name:"once" (fun () -> ());
  Native_pool.drain t;
  within ~seconds:10.0 "every worker parking" (fun () ->
      while Native_pool.parked t < domains do
        Unix.sleepf 0.001
      done);
  within ~seconds:5.0 "shutdown of a parked pool" (fun () ->
      Native_pool.shutdown t);
  checki "no worker left advertising sleep" 0 (Native_pool.parked t)

(* ------------------------------------------------------------------ *)
(* Backend counters and monitor invariants.                            *)
(* ------------------------------------------------------------------ *)

let test_backend_counters () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      checki "round-robin initial homes" 0 (Native_backend.home b o0);
      checki "round-robin initial homes" 1 (Native_backend.home b o1);
      (match Native_backend.with_op b o0 (fun () -> ()) with
      | () -> Alcotest.fail "with_op off-pool must be rejected"
      | exception Invalid_argument _ -> ());
      for c = 0 to 3 do
        Native_backend.spawn b ~core:(c mod 2) ~name:"client" (fun () ->
            for i = 0 to 24 do
              let o = if i land 1 = 0 then o0 else o1 in
              Native_backend.with_op b o (fun () ->
                  Native_backend.compute b 10)
            done)
      done;
      Native_backend.run b;
      checki "ops_completed" 100 (Native_backend.ops_completed b);
      checki "object_ops o0" 52 (Native_backend.object_ops b o0);
      checki "object_ops o1" 48 (Native_backend.object_ops b o1);
      let out, in_ = Native_backend.ships b in
      checki "ship balance at quiescence" out in_;
      Native_backend.rebalance b;
      (* Another batch after a monitor step must keep every invariant. *)
      Native_backend.spawn b ~core:0 ~name:"client2" (fun () ->
          for _ = 1 to 10 do
            Native_backend.with_op b o0 (fun () -> ())
          done);
      Native_backend.run b;
      checki "ops accumulate across batches" 110
        (Native_backend.ops_completed b);
      checki "object_ops accumulate" 62 (Native_backend.object_ops b o0);
      let out, in_ = Native_backend.ships b in
      checki "ship balance after rebalance" out in_)

(* register and rebalance rewrite [home] and regrow the counter rows
   that workers read, so both must refuse to run while a client is in
   flight — here one parked between [spawn] and [run] after submitting
   ops that would re-home an object. *)
let test_backend_quiesce_point () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      let submitted = Atomic.make false and release = Atomic.make false in
      Native_backend.spawn b ~core:0 ~name:"holder" (fun () ->
          (* Submitting from domain 0 makes it o1's dominant submitter. *)
          for _ = 1 to 10 do
            O2_runtime.Api.ship_to 0;
            Native_backend.with_op b o1 (fun () -> ())
          done;
          Atomic.set submitted true;
          while not (Atomic.get release) do
            Domain.cpu_relax ()
          done);
      while not (Atomic.get submitted) do
        Domain.cpu_relax ()
      done;
      let rejected what f =
        match f () with
        | () -> Alcotest.failf "%s with a client in flight was accepted" what
        | exception Invalid_argument _ -> ()
      in
      rejected "register" (fun () ->
          ignore (Native_backend.register b ~size:64 ~name:"late"));
      rejected "rebalance" (fun () -> Native_backend.rebalance b);
      checki "no object registered" 2 (Native_backend.objects b);
      checki "home of o0 unchanged" 0 (Native_backend.home b o0);
      checki "home of o1 unchanged" 1 (Native_backend.home b o1);
      Atomic.set release true;
      Native_backend.run b;
      (* At the quiesce point both are accepted, and the rebalance the
         guard refused really would have moved o1. *)
      Native_backend.rebalance b;
      checki "o1 re-homed to its submitter" 0 (Native_backend.home b o1);
      checki "register accepted" 2
        (Native_backend.register b ~size:64 ~name:"c"))

(* ------------------------------------------------------------------ *)
(* The oracle: same program, both backends, identical results.         *)
(* ------------------------------------------------------------------ *)

let oracle_ok r =
  if not r.Oracle.ok then
    Alcotest.fail (Format.asprintf "%a" Oracle.pp_report r)

let test_oracle_kv domains () =
  let r = Oracle.kv_cross_check ~domains () in
  oracle_ok r;
  let out, in_ = r.Oracle.native_ships in
  checki "native ships balance" out in_;
  if domains = 1 then checki "one domain never ships" 0 out

let test_oracle_dir domains () =
  let r = Oracle.dir_cross_check ~domains () in
  oracle_ok r

let test_oracle_rejects_overflowable_buckets () =
  match
    Oracle.kv_cross_check ~domains:1 ~buckets:4 ~slots_per_bucket:2
      ~keyspace:128 ()
  with
  | _ -> Alcotest.fail "sizing that can overflow a bucket must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Native telemetry: merge order, span reconstruction, oracle parity.  *)
(* ------------------------------------------------------------------ *)

module Tel = O2_runtime.Telemetry
module Ntel = O2_obs.Native_tel

(* The k-way ring merge's contract, driven through record_at with
   arbitrary (unsorted) timestamps: each writer clamps its own stamps
   nondecreasing, a full ring drops the newest and counts it, and the
   merge emits a globally nondecreasing stream that loses nothing
   except those counted drops — the retained window is a per-sink
   prefix, never a torn middle. *)
let prop_merge_nondecreasing_lossless =
  QCheck2.Test.make
    ~name:"Telemetry merge: nondecreasing ts, loses only counted drops"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 4)
        (pair (int_range 0 8)
           (list_size (int_range 0 200)
              (pair (int_range 0 4) (int_range 0 1000)))))
    (fun (domains, (cap, writes)) ->
      let tel = Tel.create ~ring_capacity:cap ~sample:1 ~domains () in
      let appended = Array.make (domains + 1) 0 in
      List.iter
        (fun (d, ts) ->
          let d = d mod (domains + 1) in
          let s = Tel.sink tel d in
          Tel.record_at s ~ts ~kind:Tel.Inbox_batch ~a:appended.(d) ~b:d ~c:0;
          appended.(d) <- appended.(d) + 1)
        writes;
      let events = Ntel.merged_events tel in
      let ok = ref true in
      let retained = ref 0 in
      for d = 0 to domains do
        let s = Tel.sink tel d in
        retained := !retained + Tel.length s;
        (* drop-newest accounting: retained + dropped = appended, and the
           retained window is exactly the first [cap] records. cap = 0 is
           metrics-only mode — the ring is disabled, not overflowing, so
           nothing is retained and nothing counts as dropped. *)
        if cap = 0 then begin
          if Tel.length s <> 0 || Tel.dropped s <> 0 then ok := false
        end
        else begin
          if Tel.length s + Tel.dropped s <> appended.(d) then ok := false;
          if Tel.length s <> min cap appended.(d) then ok := false
        end;
        for i = 0 to Tel.length s - 1 do
          if Tel.arg0 s i <> i || Tel.arg1 s i <> d then ok := false;
          if i > 0 && Tel.ts s i < Tel.ts s (i - 1) then ok := false
        done
      done;
      if Array.length events <> !retained then ok := false;
      Array.iteri
        (fun i (e : Ntel.event) ->
          if i > 0 then begin
            let p = events.(i - 1) in
            if e.Ntel.ts < p.Ntel.ts then ok := false;
            (* ties are broken toward the lower sink id, so within an
               equal-ts run sink ids never decrease *)
            if e.Ntel.ts = p.Ntel.ts && e.Ntel.sink < p.Ntel.sink then
              ok := false
          end)
        events;
      !ok)

(* The multi-domain stress the ISSUE asks for: an op stream that ships
   on (nearly) every op, reconstructed into spans whose events came
   from two different sinks. Ordering across sinks is meaningful
   because both domains read the same CLOCK_MONOTONIC. *)
let test_span_reconstruction_across_ship () =
  let domains = 2 in
  let tel = Tel.create ~domains () in
  let b = Native_backend.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      let ops = 40 in
      (* Alternating targets homed on different domains: wherever the
         client body lands (spawn target or stolen), consecutive ops
         cannot both be local, so the stream keeps shipping. *)
      Native_backend.spawn b ~core:0 ~name:"client" (fun () ->
          for i = 0 to ops - 1 do
            let o = if i land 1 = 0 then o0 else o1 in
            Native_backend.with_op b o (fun () -> Native_backend.compute b 5)
          done);
      Native_backend.run b;
      let spans, incomplete = Ntel.spans tel in
      checki "no spans lost to the ring bound" 0 incomplete;
      checki "one span per op" ops (List.length spans);
      let out, _ = Native_backend.ships b in
      checki "shipped spans = the backend's own ship count" out
        (List.length (List.filter Ntel.shipped spans));
      checkb "the alternating client really shipped" true (out > 0);
      List.iter
        (fun (s : Ntel.span) ->
          checkb "submit <= start <= end" true
            (s.Ntel.submit_ts <= s.Ntel.start_ts
            && s.Ntel.start_ts <= s.Ntel.end_ts);
          checki "ops execute on the object's home"
            (Native_backend.home b s.Ntel.obj)
            s.Ntel.exec_sink;
          if Ntel.shipped s then begin
            checkb "ship handoff bracketed inside the span" true
              (s.Ntel.submit_ts <= s.Ntel.ship_out_ts
              && s.Ntel.ship_out_ts <= s.Ntel.ship_in_ts
              && s.Ntel.ship_in_ts <= s.Ntel.start_ts);
            checki "flow arrow lands on the executing domain"
              s.Ntel.exec_sink s.Ntel.ship_dst;
            checkb "shipped means cross-domain" true
              (s.Ntel.submit_sink <> s.Ntel.exec_sink)
          end
          else
            checki "home op stays on its submitter" s.Ntel.submit_sink
              s.Ntel.exec_sink)
        spans;
      (* The latency accumulators ride with_op locals, not the ring: they
         must have seen every op. *)
      let m = Ntel.metrics tel in
      checki "every op observed by the latency accumulators" ops
        (O2_obs.Hist.count (O2_obs.Metrics.hist m "op_ns/exec")))

(* The flight recorder must be an observer, not a participant: the
   oracle's bit-identical cross-check still holds with telemetry
   attached (sampled rings, so drop handling is exercised too). *)
let test_oracle_kv_with_telemetry domains () =
  let telemetry = Tel.create ~ring_capacity:(1 lsl 14) ~sample:7 ~domains () in
  let r = Oracle.kv_cross_check ~telemetry ~domains () in
  oracle_ok r;
  checkb "the recorder captured events" true (Tel.total_events telemetry > 0);
  let out, _ = r.Oracle.native_ships in
  checki "telemetry's ship count matches the backend's" out
    (Tel.fold_sinks telemetry ~init:0 ~f:(fun acc s -> acc + Tel.ships_out s))

(* ------------------------------------------------------------------ *)
(* Read-only objects run where they are submitted.                     *)
(* ------------------------------------------------------------------ *)

(* A write on a read-only object is a program error on both backends,
   and it surfaces from [run] like any client exception. *)
let test_write_on_read_only_raises () =
  let raises what f =
    match f () with
    | () ->
        Alcotest.failf "%s: ~write:true on a read-only object was accepted"
          what
    | exception Invalid_argument _ -> ()
  in
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let x = Native_backend.register ~read_only:true b ~size:64 ~name:"x" in
      let m = Native_backend.register b ~size:64 ~name:"m" in
      Native_backend.spawn b ~core:0 ~name:"writer" (fun () ->
          Native_backend.with_op b ~write:true x (fun () -> ()));
      raises "native" (fun () -> Native_backend.run b);
      (* the pool survives, and writes to mutable objects still run *)
      Native_backend.spawn b ~core:1 ~name:"ok" (fun () ->
          Native_backend.with_op b ~write:true m (fun () -> ());
          Native_backend.with_op b ~write:false x (fun () -> ()));
      Native_backend.run b;
      checki "later ops complete" 2 (Native_backend.ops_completed b));
  let s = Sim_backend.create () in
  let x = Sim_backend.register ~read_only:true s ~size:64 ~name:"x" in
  Sim_backend.spawn s ~core:0 ~name:"writer" (fun () ->
      Sim_backend.with_op s ~write:true x (fun () -> ()));
  raises "sim" (fun () -> Sim_backend.run s)

module Native_dir = Backend_dir.Make (Native_backend)

(* Directories are registered read-only: a 2-domain dir run never ships
   and returns every lookup right, while the kv store's mutable buckets
   keep shipping to their homes. *)
let test_dir_runs_local_kv_ships () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let dirs = 24 and entries_per_dir = 48 and clients = 8 in
      let d = Native_dir.create b ~name:"dir" ~dirs ~entries_per_dir () in
      let wrong = Array.make clients 0 in
      for round = 0 to 2 do
        for c = 0 to clients - 1 do
          let prog =
            Op_program.dir_program ~dirs ~entries_per_dir ~ops:500
              ~seed:(17 + (31 * round) + c)
          in
          Native_backend.spawn b ~core:(c mod 2) ~name:"dir-client" (fun () ->
              Array.iter
                (fun (dir, key) ->
                  let expected = if key < entries_per_dir then key else -1 in
                  if Native_dir.lookup d ~dir ~key <> expected then
                    wrong.(c) <- wrong.(c) + 1)
                prog)
        done;
        Native_backend.run b
      done;
      checki "every lookup correct" 0 (Array.fold_left ( + ) 0 wrong);
      checki "every lookup ran" (3 * clients * 500)
        (Native_backend.ops_completed b);
      let out, in_ = Native_backend.ships b in
      checki "read-only lookups never ship" 0 out;
      checki "nothing arrives either" 0 in_);
  let r = Oracle.kv_cross_check ~domains:2 () in
  oracle_ok r;
  let out, in_ = r.Oracle.native_ships in
  checkb "kv buckets still ship" true (out > 0);
  checki "kv ships balance" out in_

(* With telemetry on, a read-only op run off its object's home records
   a Remote-class span and a shipped op on a mutable object a Migrated
   one, so captures say where each op really ran. *)
let test_span_classes () =
  let tel = Tel.create ~sample:1 ~domains:2 () in
  let b = Native_backend.create ~telemetry:tel ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let x = Native_backend.register ~read_only:true b ~size:64 ~name:"x" in
      let m = Native_backend.register b ~size:64 ~name:"m" in
      (* handles are homed round-robin: x on domain 0, m on domain 1 *)
      checki "m's home" 1 (Native_backend.home b m);
      Native_backend.spawn b ~core:0 ~name:"client" (fun () ->
          O2_runtime.Api.ship_to 1;
          Native_backend.with_op b x (fun () -> ());
          O2_runtime.Api.ship_to 0;
          Native_backend.with_op b m (fun () -> ()));
      Native_backend.run b;
      let spans, incomplete = Ntel.spans tel in
      checki "no incomplete span" 0 incomplete;
      let classes =
        List.map (fun s -> Ntel.class_name (Ntel.classify s)) spans
      in
      check
        Alcotest.(list string)
        "read-only off home, then shipped" [ "remote"; "migrated" ] classes)

let suite =
  [
    Alcotest.test_case "deque grow + FIFO/LIFO ends" `Quick test_deque_grow;
    QCheck_alcotest.to_alcotest prop_deque_matches_model;
    Alcotest.test_case "deque multi-domain stress" `Slow test_deque_stress;
    Alcotest.test_case "inbox MPSC per-producer FIFO" `Quick test_inbox_fifo;
    Alcotest.test_case "pool: shipping lands on target" `Quick
      test_pool_ship_lands_on_target;
    Alcotest.test_case "pool: client exception propagates" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: yield keeps all work" `Quick
      test_pool_yield_and_scale;
    Alcotest.test_case "backend: counters and ship balance" `Quick
      test_backend_counters;
    Alcotest.test_case "oracle: kv at 1 domain" `Slow (test_oracle_kv 1);
    Alcotest.test_case "oracle: kv at 2 domains" `Slow (test_oracle_kv 2);
    Alcotest.test_case "oracle: kv at 4 domains" `Slow (test_oracle_kv 4);
    Alcotest.test_case "oracle: dir at 2 domains" `Slow (test_oracle_dir 2);
    Alcotest.test_case "oracle: rejects overflowable buckets" `Quick
      test_oracle_rejects_overflowable_buckets;
    QCheck_alcotest.to_alcotest prop_merge_nondecreasing_lossless;
    Alcotest.test_case "telemetry: spans survive the ship handoff" `Quick
      test_span_reconstruction_across_ship;
    Alcotest.test_case "oracle: kv with telemetry at 1 domain" `Slow
      (test_oracle_kv_with_telemetry 1);
    Alcotest.test_case "oracle: kv with telemetry at 2 domains" `Slow
      (test_oracle_kv_with_telemetry 2);
    Alcotest.test_case "oracle: kv with telemetry at 4 domains" `Slow
      (test_oracle_kv_with_telemetry 4);
    Alcotest.test_case "pool: no lost wakeup at 2 domains" `Quick
      (test_pool_no_lost_wakeup 2);
    Alcotest.test_case "pool: no lost wakeup at 4 domains" `Slow
      (test_pool_no_lost_wakeup 4);
    Alcotest.test_case "pool: shutdown joins a parked pool" `Quick
      test_pool_shutdown_parked;
    Alcotest.test_case "backend: register/rebalance need a quiesce point"
      `Quick test_backend_quiesce_point;
    Alcotest.test_case "backend: write on a read-only object raises" `Quick
      test_write_on_read_only_raises;
    Alcotest.test_case "backend: dir runs where submitted, kv ships" `Slow
      test_dir_runs_local_kv_ships;
    Alcotest.test_case "telemetry: read-only ops off home are remote"
      `Quick test_span_classes;
    Alcotest.test_case "oracle: dir at 1 domain" `Slow (test_oracle_dir 1);
    Alcotest.test_case "oracle: dir at 4 domains" `Slow (test_oracle_dir 4);
  ]
