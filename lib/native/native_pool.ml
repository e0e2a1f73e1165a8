(* The raw-primitive shim of lib/native: every Domain / Mutex /
   Condition use in the native backend lives here, beside the effect
   handler that interprets Api shipping on real domains — the same
   confinement discipline as Domain_pool (o2staticcheck's raw-primitive
   allowlist names exactly these two files).

   Cache-line discipline: a worker writes only lines it owns — its
   deque, its inbox head, its flag and its padded counter slots in
   [ctr] (see Slots) — except the one a ship must hand over, the
   target's inbox head. Waking reads only the target's flag, and the
   pre-park spin only reads.

   Park/wake protocol, per worker: a parking worker sets its own
   [sleeping] flag, then re-checks its inbox and every deque
   ([has_work]); only if all are empty does it wait on its own
   condition, looping while the flag is still set. A poster pushes to
   the target's inbox and then reads only the target's flag; a worker
   that pushes a fresh client on its deque reads its peers' flags. SC
   atomics make this a Dekker pair — the worker writes its flag before
   reading the queues, the poster writes a queue before reading the
   flag, so at least one side sees the other. The waker claims the flag
   (CAS true -> false) and signals under the sleeper's mutex, which the
   sleeper holds from its flag check until [Condition.wait] releases
   it, so no wakeup is lost. Before parking, a worker with clients in
   flight spins on the same read-only [has_work] check for [spin_limit]
   polls, unless domains outnumber the CPUs the process may run on —
   then it parks at once and leaves the CPU to whoever holds the work.

   Quiescence: [inflight] counts spawned client bodies not yet finished;
   the handler's retc/exnc decrement it exactly once per client no
   matter how many times the client shipped between domains. *)

open O2_runtime

type task =
  | Done  (* the dummy sentinel for Deque/Inbox; never executed *)
  | Fresh of { name : string; body : unit -> unit }
  | Resume of (unit, unit) Effect.Deep.continuation

(* Immutable: posters read [inbox] and [sleeping] through this record,
   so nothing the owner writes per task may live in it. *)
type worker = {
  deque : task Deque.t;
  inbox : task Inbox.t;
  sleeping : bool Atomic.t;  (* set by the owner to park, cleared by a waker *)
  lock : Mutex.t;  (* guards the wait on [wake] *)
  wake : Condition.t;
  sink : Telemetry.sink;  (* this worker's single-writer telemetry sink *)
}

type t = {
  n : int;
  tel : Telemetry.t;
  tel_on : bool;  (* Telemetry.enabled tel, cached for the hot loop *)
  coord_sink : Telemetry.sink;
  workers : worker array;
  ctr : Slots.t;  (* per-worker counters, owner-written *)
  spin : int;  (* polls before parking: [spin_limit], or 0 oversubscribed *)
  inflight : int Atomic.t;
  stop : bool Atomic.t;
  error : exn option Atomic.t;  (* first client exception, kept for drain *)
  idle_lock : Mutex.t;
  idle : Condition.t;  (* drain waits here *)
  mutable handles : unit Domain.t array;
  mutable down : bool;
}

let slot_executed = 0
let slot_stolen = 1
let slot_victim = 2  (* deque index the last successful steal hit *)

(* About 35 µs at ~35 ns a poll (a pause and a few loads) on a 2-core
   Xeon VM: below the 44-60 µs park -> wake round trip measured there.
   2,000 polls measured slower on native_dir. *)
let spin_limit = 1_000

(* Worker identity travels in domain-local storage, not in captured
   closure state: a shipped continuation resumes on another domain, and
   its handler must see the NEW domain's index (e.g. for Yield's
   re-queue). The slot also names the pool, so nested/successive pools
   cannot alias each other's indices. *)
let dls_slot : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let domains t = t.n

let current_domain t =
  match Domain.DLS.get dls_slot with
  | Some (p, i) when p == t -> i
  | _ -> -1

(* Claim the sleeper's flag, then signal under its mutex: the sleeper
   holds that mutex from its own flag check until it waits. A worker
   that is awake costs one read. *)
let wake w =
  if Atomic.get w.sleeping && Atomic.compare_and_set w.sleeping true false
  then begin
    Mutex.lock w.lock;
    Condition.signal w.wake;
    Mutex.unlock w.lock
  end

let rec wake_peers t me i =
  if i < t.n then begin
    if i <> me then wake t.workers.(i);
    wake_peers t me (i + 1)
  end

let post t ~core task =
  let w = t.workers.(core) in
  Inbox.push w.inbox task;
  wake w

let record_error t e = ignore (Atomic.compare_and_set t.error None (Some e))

let finish t =
  if Atomic.fetch_and_add t.inflight (-1) = 1 then begin
    Mutex.lock t.idle_lock;
    Condition.broadcast t.idle;
    Mutex.unlock t.idle_lock
  end

let make_handler t =
  {
    Effect.Deep.retc = (fun () -> finish t);
    exnc =
      (fun e ->
        record_error t e;
        finish t);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Api.Ship_to core ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                post t ~core (Resume k))
        | Api.Migrate_to core ->
            (* Same delivery as shipping: on real domains there is no
               register state to drag along, only the continuation. *)
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                post t ~core (Resume k))
        | Api.Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let me = current_domain t in
                Deque.push t.workers.(me).deque (Resume k))
        | _ -> None);
  }

let run_task t me handler task =
  Slots.incr t.ctr ~d:me slot_executed;
  match task with
  | Done -> ()
  | Fresh f -> Effect.Deep.match_with f.body () handler
  | Resume k -> Effect.Deep.continue k ()

(* Thief sweep over peers' deques, round-robin from me+1. A miss (empty
   or lost race) moves on; one full silent lap gives up. A hit leaves
   the victim's index in the worker's [slot_victim] slot so the
   telemetry event can name it without the sweep returning a pair. *)
let rec sweep t me i =
  if i >= t.n then Done
  else begin
    let j = me + i in
    let j = if j >= t.n then j - t.n else j in
    let v = Deque.steal t.workers.(j).deque in
    if v != Done then begin
      Slots.set t.ctr ~d:me slot_victim j;
      v
    end
    else sweep t me (i + 1)
  end

let rec deques_empty t i =
  i >= t.n || (Deque.is_empty t.workers.(i).deque && deques_empty t (i + 1))

(* Reads only: the spin's poll and the park's re-check. *)
let has_work t w = (not (Inbox.is_empty w.inbox)) || not (deques_empty t 0)

(* Only while clients are in flight: with none, work can come only from
   the coordinator, which wants the CPU more than a spinner does. *)
let rec spin t w n =
  if n <= 0 || Atomic.get t.inflight = 0 || Atomic.get t.stop then false
  else if has_work t w then true
  else begin
    Domain.cpu_relax ();
    spin t w (n - 1)
  end

(* Telemetry brackets the blocking section only: a park whose re-check
   finds work was never asleep and records nothing. *)
let park t w =
  Atomic.set w.sleeping true;
  if has_work t w || Atomic.get t.stop then Atomic.set w.sleeping false
  else begin
    if t.tel_on then Telemetry.note_park w.sink;
    Mutex.lock w.lock;
    while Atomic.get w.sleeping && not (Atomic.get t.stop) do
      Condition.wait w.wake w.lock
    done;
    Mutex.unlock w.lock;
    (* A waker already cleared it; [stop] did not. *)
    Atomic.set w.sleeping false;
    if t.tel_on then Telemetry.note_wake w.sink
  end

let rec loop t w me handler on_task =
  if not (Atomic.get t.stop) then begin
    let drained = Inbox.drain_into w.inbox on_task in
    if drained > 0 && t.tel_on then
      Telemetry.note_inbox_batch w.sink ~count:drained;
    let task = Deque.pop w.deque in
    if task != Done then begin
      run_task t me handler task;
      loop t w me handler on_task
    end
    else if drained > 0 then loop t w me handler on_task
    else begin
      let stolen = sweep t me 1 in
      if stolen != Done then begin
        Slots.incr t.ctr ~d:me slot_stolen;
        if t.tel_on then begin
          let victim = Slots.get t.ctr ~d:me slot_victim in
          Telemetry.note_steal w.sink ~victim
        end;
        run_task t me handler stolen;
        loop t w me handler on_task
      end
      else begin
        if not (spin t w t.spin) then park t w;
        loop t w me handler on_task
      end
    end
  end

let worker_main t me () =
  Domain.DLS.set dls_slot (Some (t, me));
  let w = t.workers.(me) in
  let handler = make_handler t in
  (* Built once per worker: the drain callback runs shipped/yielded
     continuations immediately (FIFO, preserving per-object op order)
     and makes fresh client bodies stealable on the own deque. *)
  let on_task task =
    match task with
    | Resume _ -> run_task t me handler task
    | Fresh _ ->
        Deque.push w.deque task;
        wake_peers t me 0
    | Done -> ()
  in
  loop t w me handler on_task

let create ?(telemetry = Telemetry.off) ~domains () =
  if domains < 1 then invalid_arg "Native_pool.create: domains must be >= 1";
  let sinks = Telemetry.sink_array telemetry ~n:domains in
  let worker i =
    {
      deque = Deque.create ~dummy:Done ();
      inbox = Inbox.create ~dummy:Done ();
      sleeping = Atomic.make false;
      lock = Mutex.create ();
      wake = Condition.create ();
      sink = sinks.(i);
    }
  in
  let t =
    {
      n = domains;
      tel = telemetry;
      tel_on = Telemetry.enabled telemetry;
      coord_sink = Telemetry.coordinator telemetry;
      workers = Array.init domains worker;
      ctr = Slots.create ~domains;
      spin =
        (if domains <= Domain.recommended_domain_count () then spin_limit
         else 0);
      inflight = Atomic.make 0;
      stop = Atomic.make false;
      error = Atomic.make None;
      idle_lock = Mutex.create ();
      idle = Condition.create ();
      handles = [||];
      down = false;
    }
  in
  t.handles <- Array.init domains (fun i -> Domain.spawn (worker_main t i));
  t

let spawn t ~core ~name body =
  if core < 0 || core >= t.n then
    invalid_arg "Native_pool.spawn: core out of range";
  if t.down then invalid_arg "Native_pool.spawn: pool is shut down";
  if t.tel_on then begin
    (* Spawns come from the coordinator or from a worker; either way the
       caller owns exactly one sink. *)
    let me = current_domain t in
    let s = if me >= 0 then t.workers.(me).sink else t.coord_sink in
    Telemetry.note_spawned s ~core
  end;
  Atomic.incr t.inflight;
  post t ~core (Fresh { name; body })

let quiescent t = Atomic.get t.inflight = 0

let drain t =
  if current_domain t >= 0 then
    invalid_arg "Native_pool.drain: must be called off-pool";
  Mutex.lock t.idle_lock;
  while Atomic.get t.inflight > 0 do
    Condition.wait t.idle t.idle_lock
  done;
  Mutex.unlock t.idle_lock;
  match Atomic.get t.error with
  | None -> ()
  | Some e ->
      Atomic.set t.error None;
      raise e

(* [stop] is set before each sleeper's mutex is taken, so a worker
   either reads it in its wait loop or is already waiting for this
   signal. *)
let shutdown t =
  if not t.down then begin
    t.down <- true;
    Atomic.set t.stop true;
    Array.iter
      (fun w ->
        Mutex.lock w.lock;
        Condition.signal w.wake;
        Mutex.unlock w.lock)
      t.workers;
    Array.iter Domain.join t.handles
  end

let parked t =
  Array.fold_left
    (fun acc w -> if Atomic.get w.sleeping then acc + 1 else acc)
    0 t.workers

let tasks_executed t = Slots.sum t.ctr ~domains:t.n slot_executed
let steals t = Slots.sum t.ctr ~domains:t.n slot_stolen
let telemetry t = t.tel
