(* The native workloads: a closed loop of client bodies on the real-domains
   backend, in rounds separated by the quiesce-point rebalancer. Each
   client times every call it makes with the monotonic clock and stores the
   latency and the result in its own preallocated arrays, so nothing is
   shared between clients while a round runs. *)

module NB = O2_native.Native_backend
module Kv = O2_native.Backend_kv.Make (O2_native.Native_backend)
module Dir = O2_native.Backend_dir.Make (O2_native.Native_backend)
module Op = O2_native.Op_program

type kind = Kv_store | Dir_lookup

let clients = 8
let buckets = 64
let slots_per_bucket = 32
let keyspace = 1024
let dirs = 24
let entries_per_dir = 48

(* Inputs: [programs] distinct rounds generated from the seed before any
   timing starts; the loop cycles through them. *)
type input =
  | Kv_rounds of Op.op array array array  (** [round].(client) *)
  | Dir_rounds of (int * int) array array array

let generate kind ~seed ~programs ~ops_per_client =
  match kind with
  | Kv_store ->
      Kv_rounds
        (Array.init programs (fun r ->
             Array.init clients (fun c ->
                 Op.kv_program ~clients ~client:c ~ops:ops_per_client ~keyspace
                   ~seed:((seed * 7919) + (97 * r) + 1))))
  | Dir_lookup ->
      Dir_rounds
        (Array.init programs (fun r ->
             Array.init clients (fun c ->
                 Op.dir_program ~dirs ~entries_per_dir ~ops:ops_per_client
                   ~seed:((seed * 7919) + (131 * ((r * clients) + c + 1))))))

type store = Kv_s of Kv.t | Dir_s of Dir.t

(* The program's constructors: the pool and the store registered on it. *)
let create kind ~domains ~telemetry =
  let b =
    Common.Span.wrap "Native_backend.create" (fun () -> NB.create ~telemetry ~domains ())
  in
  let t1 = Common.now_ns () in
  let s =
    match kind with
    | Kv_store ->
        Kv_s
          (Common.Span.wrap "Backend_kv.create" (fun () ->
               Kv.create b ~name:"kv" ~buckets ~slots_per_bucket ()))
    | Dir_lookup ->
        Dir_s
          (Common.Span.wrap "Backend_dir.create" (fun () ->
               Dir.create b ~name:"dir" ~dirs ~entries_per_dir ()))
  in
  (b, s, t1)

(* Host-side model of the store for the output checks. Key ownership makes
   each client's results a function of its own history alone, so one map
   over all keys predicts every client whatever the schedule. *)
let model_kv model op =
  let raw =
    match op with
    | Op.Get k -> ( match Hashtbl.find_opt model k with Some v -> v | None -> -1)
    | Op.Put (k, v) ->
        Hashtbl.replace model k v;
        1
    | Op.Delete k ->
        if Hashtbl.mem model k then begin
          Hashtbl.remove model k;
          1
        end
        else 0
  in
  Op.kv_result op ~raw

let expected_lookup ~key = if key >= 0 && key < entries_per_dir then key else -1

type phase = {
  mutable rounds : int;
  mutable ops : int;
  mutable failed : int;
  mutable samples : int;  (** Client calls timed. *)
  mutable p50 : float list;  (** Per-round exact percentiles, ns. *)
  mutable p99 : float list;
  mutable rate : float list;  (** Ops per wall second, per round. *)
  mutable run_s : float list;  (** Per [Native_backend.run] call. *)
  mutable rebalance_s : float list;  (** Per [Native_backend.rebalance] call. *)
  mutable setup_s : float list;
  mutable pool_create_s : float list;
  mutable ships : int;
  mutable steals : int;
  mutable migrations : int;
  mutable checks : (string * bool) list;
}

let new_phase () =
  {
    rounds = 0;
    ops = 0;
    failed = 0;
    samples = 0;
    p50 = [];
    p99 = [];
    rate = [];
    run_s = [];
    rebalance_s = [];
    setup_s = [];
    pool_create_s = [];
    ships = 0;
    steals = 0;
    migrations = 0;
    checks = [];
  }

(* Set-up is timed [setups] times: every instance but the last is shut down
   again; the last one runs the loop. *)
let setup kind ~domains ~telemetry ~setups ph =
  let rec go i =
    let t0 = Common.now_ns () in
    let b, s, t1 = create kind ~domains ~telemetry:(telemetry ()) in
    let t2 = Common.now_ns () in
    ph.setup_s <- Common.s_of_ns (t2 - t0) :: ph.setup_s;
    ph.pool_create_s <- Common.s_of_ns (t1 - t0) :: ph.pool_create_s;
    if i + 1 < setups then begin
      NB.shutdown b;
      go (i + 1)
    end
    else (b, s)
  in
  go 0

(* Run the closed loop for [seconds] of wall time (at least one round). *)
let run_loop kind ~domains ~telemetry ~setups ~seconds ~input ~ops_per_client =
  let ph = new_phase () in
  let b, store = setup kind ~domains ~telemetry ~setups ph in
  let lat = Array.init clients (fun _ -> Array.make ops_per_client 0) in
  let starts = Array.init clients (fun _ -> Array.make ops_per_client 0) in
  let res = Array.init clients (fun _ -> Array.make ops_per_client 0) in
  let model = Hashtbl.create keyspace in
  let round_lat = Array.make (clients * ops_per_client) 0 in
  let scratch = Common.Lat.create () in
  let trace = !Common.Span.on in
  let op_name =
    match kind with Kv_store -> [| "Kv.get"; "Kv.put"; "Kv.delete" |] | Dir_lookup -> [| "Dir.lookup" |]
  in
  let op_kind = Array.init clients (fun _ -> Array.make ops_per_client 0) in
  let programs = match input with Kv_rounds a -> Array.length a | Dir_rounds a -> Array.length a in
  let spawn_round r =
    for c = 0 to clients - 1 do
      let lat = lat.(c) and res = res.(c) and starts = starts.(c) and kinds = op_kind.(c) in
      let body =
        match (input, store) with
        | Kv_rounds progs, Kv_s kv ->
            let prog = progs.(r).(c) in
            fun () ->
              for i = 0 to Array.length prog - 1 do
                let op = prog.(i) in
                let t0 = Common.now_ns () in
                let raw =
                  match op with
                  | Op.Get key -> Kv.get kv ~key
                  | Op.Put (key, value) -> if Kv.put kv ~key ~value then 1 else 0
                  | Op.Delete key -> if Kv.delete kv ~key then 1 else 0
                in
                let t1 = Common.now_ns () in
                lat.(i) <- t1 - t0;
                starts.(i) <- t0;
                kinds.(i) <- (match op with Op.Get _ -> 0 | Op.Put _ -> 1 | Op.Delete _ -> 2);
                res.(i) <- Op.kv_result op ~raw
              done
        | Dir_rounds progs, Dir_s d ->
            let prog = progs.(r).(c) in
            fun () ->
              for i = 0 to Array.length prog - 1 do
                let dir, key = prog.(i) in
                let t0 = Common.now_ns () in
                let v = Dir.lookup d ~dir ~key in
                let t1 = Common.now_ns () in
                lat.(i) <- t1 - t0;
                starts.(i) <- t0;
                res.(i) <- v
              done
        | _ -> invalid_arg "Native.run_loop: input does not match the store"
      in
      Common.Span.wrap "Native_backend.spawn" (fun () ->
          NB.spawn b ~core:(c mod domains) ~name:"client" body)
    done
  in
  let check_round r =
    let failed = ref 0 in
    for c = 0 to clients - 1 do
      match input with
      | Kv_rounds progs ->
          Array.iteri
            (fun i op -> if model_kv model op <> res.(c).(i) then incr failed)
            progs.(r).(c)
      | Dir_rounds progs ->
          Array.iteri
            (fun i (_, key) -> if expected_lookup ~key <> res.(c).(i) then incr failed)
            progs.(r).(c)
    done;
    !failed
  in
  let steals0 = O2_native.Native_pool.steals (NB.pool b) in
  let deadline = Common.now_ns () + int_of_float (seconds *. 1e9) in
  let ships_ok = ref true in
  let continue_ = ref true in
  while !continue_ do
    let r = ph.rounds mod programs in
    let ops0 = NB.ops_completed b in
    let out0, _ = NB.ships b in
    let t0 = Common.now_ns () in
    let run_id = ref (-1) in
    Common.Span.wrap "round" (fun () ->
        spawn_round r;
        let a = Common.now_ns () in
        let (), id = Common.Span.wrap_id "Native_backend.run" (fun () -> NB.run b) in
        run_id := id;
        let a' = Common.now_ns () in
        Common.Span.wrap "Native_backend.rebalance" (fun () -> NB.rebalance b);
        let a'' = Common.now_ns () in
        ph.run_s <- Common.s_of_ns (a' - a) :: ph.run_s;
        ph.rebalance_s <- Common.s_of_ns (a'' - a') :: ph.rebalance_s);
    let t1 = Common.now_ns () in
    let ops = NB.ops_completed b - ops0 in
    let out, in_ = NB.ships b in
    let round_ops = clients * ops_per_client in
    let failed = check_round r in
    (* Out must equal in at quiescence; a round that breaks it fails whole. *)
    let failed = if out <> in_ || ops <> round_ops then round_ops else failed in
    if out <> in_ then ships_ok := false;
    ph.ships <- ph.ships + (out - out0);
    ph.ops <- ph.ops + round_ops;
    ph.failed <- ph.failed + failed;
    ph.rounds <- ph.rounds + 1;
    let secs = Common.s_of_ns (t1 - t0) in
    ph.rate <- (float_of_int round_ops /. secs) :: ph.rate;
    (* Latency percentiles are taken per round and summarised by their
       median over rounds, so a burst of host interference moves a few
       rounds rather than the run's pooled tail. *)
    for c = 0 to clients - 1 do
      let l = lat.(c) in
      Array.blit l 0 round_lat (c * ops_per_client) ops_per_client;
      if trace then
        for i = 0 to ops_per_client - 1 do
          Common.Span.add_client op_name.(op_kind.(c).(i)) ~start:starts.(c).(i)
            ~stop:(starts.(c).(i) + l.(i)) ~parent:!run_id
        done
    done;
    let ps = Common.Lat.percentiles_of scratch round_lat [| 0.5; 0.99 |] in
    ph.p50 <- ps.(0) :: ph.p50;
    ph.p99 <- ps.(1) :: ph.p99;
    ph.samples <- ph.samples + Array.length round_lat;
    if Common.now_ns () >= deadline then continue_ := false
  done;
  ph.steals <- O2_native.Native_pool.steals (NB.pool b) - steals0;
  ph.migrations <- NB.migrations b;
  ph.checks <-
    [
      ("ships_out_eq_in", !ships_ok);
      ("all_ops_completed", NB.ops_completed b = ph.ops);
    ];
  (b, ph)
