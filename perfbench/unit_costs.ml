(* Unit costs of the public calls whose counts the traced run reports,
   timed from outside in batches; each row is the median over batches of
   host ns per call. Informational: the traced run multiplies them by the
   layer counts to predict a layer's time, and nothing gates on them. *)

open O2_simcore
module NB = O2_native.Native_backend

let batches = 7

(* Median over [batches] of the host ns per iteration of [body] run [n]
   times; [prepare] runs untimed before each batch. *)
let per_call ?(prepare = fun () -> ()) ~n body =
  let samples =
    List.init batches (fun _ ->
        prepare ();
        let t0 = Common.now_ns () in
        for i = 0 to n - 1 do
          body i
        done;
        float_of_int (Common.now_ns () - t0) /. float_of_int n)
  in
  Common.median samples

let read_l1_ns () =
  let m = Machine.create Config.amd16 in
  let addr = (Memsys.alloc (Machine.memory m) ~name:"l1" ~size:64).Memsys.base in
  ignore (Machine.read m ~core:0 ~now:0 ~addr ~len:8);
  per_call ~n:200_000 (fun _ -> ignore (Machine.read m ~core:0 ~now:0 ~addr ~len:8))

(* Every read touches a line no cache has held: a fresh machine per batch,
   one line per call, walking forward. *)
let read_dram_ns () =
  let lines = 50_000 in
  let m = ref (Machine.create Config.amd16) and base = ref 0 and now = ref 0 in
  let prepare () =
    m := Machine.create Config.amd16;
    now := 0;
    base := (Memsys.alloc (Machine.memory !m) ~name:"dram" ~size:(lines * 64)).Memsys.base
  in
  per_call ~prepare ~n:lines (fun i ->
      now := !now + Machine.read !m ~core:0 ~now:!now ~addr:(!base + (i * 64)) ~len:8)

(* One push plus one pop_min against a queue held at the engine's usual
   depth (a few events per core). *)
let event_queue_ns () =
  let q : int O2_runtime.Event_queue.t = O2_runtime.Event_queue.create () in
  for i = 1 to 64 do
    O2_runtime.Event_queue.push q ~time:i i
  done;
  let t = ref 64 in
  per_call ~n:500_000 (fun _ ->
      incr t;
      O2_runtime.Event_queue.push q ~time:!t !t;
      ignore (O2_runtime.Event_queue.pop_min q))

let deque_push_pop_ns () =
  let d = O2_native.Deque.create ~dummy:(-1) () in
  per_call ~n:500_000 (fun i ->
      O2_native.Deque.push d i;
      ignore (O2_native.Deque.pop d))

(* Uncontended steal: the batch is pushed untimed, then stolen back. *)
let deque_steal_ns () =
  let n = 100_000 in
  let d = O2_native.Deque.create ~capacity:n ~dummy:(-1) () in
  let prepare () =
    for i = 0 to n - 1 do
      O2_native.Deque.push d i
    done
  in
  per_call ~prepare ~n (fun _ -> ignore (O2_native.Deque.steal d))

(* push then drain_into, per element, in batches of 64 deliveries. *)
let inbox_push_drain_ns () =
  let ib = O2_native.Inbox.create ~dummy:(-1) () in
  let sink = ref 0 in
  per_call ~n:10_000 (fun _ ->
      for i = 0 to 63 do
        O2_native.Inbox.push ib i
      done;
      ignore (O2_native.Inbox.drain_into ib (fun x -> sink := !sink + x)))
  /. 64.0

(* A backend whose objects 0 and 1 are homed on different domains. *)
let with_pool ~domains f =
  let b = NB.create ~domains () in
  Fun.protect ~finally:(fun () -> NB.shutdown b) (fun () -> f b)

(* Two clients, one started on each domain, each alternating between an
   object homed on domain 0 and one homed on domain 1, so every op ships
   its continuation to a domain that is busy with the other client and
   nobody parks: domain-ns per shipped [with_op] ([domains] x wall / ops).
   Needs two domains. *)
let ship_handoff_ns ~domains =
  if domains < 2 then 0.0
  else
    with_pool ~domains (fun b ->
        let objs = [| NB.register b ~size:64 ~name:"a"; NB.register b ~size:64 ~name:"b" |] in
        let n = 20_000 in
        let client first () =
          for i = 0 to n - 1 do
            NB.with_op b objs.((i + first) land 1) (fun () -> ())
          done
        in
        per_call ~n:1 (fun _ ->
            NB.spawn b ~core:0 ~name:"ship-a" (client 1);
            NB.spawn b ~core:1 ~name:"ship-b" (client 0);
            NB.run b)
        *. 2.0 /. float_of_int (2 * n))

(* spawn -> run of a trivial client on a pool whose workers have had time
   to park: the park -> wake round trip as the coordinator sees it. *)
let wake_ns ~domains =
  with_pool ~domains (fun b ->
      let reps = 60 in
      let samples =
        List.init reps (fun _ ->
            Unix.sleepf 0.002;
            let t0 = Common.now_ns () in
            NB.spawn b ~core:0 ~name:"wake" (fun () -> ());
            NB.run b;
            float_of_int (Common.now_ns () - t0))
      in
      Common.median samples)

type t = {
  read_l1 : float;
  read_dram : float;
  event_queue : float;
  deque_push_pop : float;
  deque_steal : float;
  inbox_push_drain : float;
  ship_handoff : float;
  wake : float;
}

let measure ~domains =
  let row name f = Common.Span.wrap ("unit_cost." ^ name) f in
  let read_l1 = row "read_l1" read_l1_ns in
  let read_dram = row "read_dram" read_dram_ns in
  let event_queue = row "event_queue" event_queue_ns in
  let deque_push_pop = row "deque_push_pop" deque_push_pop_ns in
  let deque_steal = row "deque_steal" deque_steal_ns in
  let inbox_push_drain = row "inbox_push_drain" inbox_push_drain_ns in
  let ship_handoff = row "ship_handoff" (fun () -> ship_handoff_ns ~domains) in
  let wake = row "wake" (fun () -> wake_ns ~domains) in
  {
    read_l1;
    read_dram;
    event_queue;
    deque_push_pop;
    deque_steal;
    inbox_push_drain;
    ship_handoff;
    wake;
  }
