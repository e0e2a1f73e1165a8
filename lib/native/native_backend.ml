(* Counter layout: everything hot is plain per-domain storage written
   only by its owning worker, and no two domains' counters share a cache
   line. [dstats] is padded Slots; each [submits] / [ops_by_obj] row is
   its own block with [Slots.stride] words (128 bytes) of tail padding
   past its last object. Separate
   small records or unpadded rows would sit adjacent in the heap, and
   every op would bounce the line between domains. Rows are summed by
   the coordinator only at quiescence; [home] and [read_only] are plain
   too — written only inside [rebalance] and [register] (inflight = 0,
   no worker executing clients) and published to workers by the next
   spawn's inbox CAS / drain exchange pair. *)

let d_ops = 0
let d_ships_out = 1
let d_ships_in = 2

type t = {
  pool : Native_pool.t;
  n : int;  (* pool domains *)
  probe : O2_runtime.Probe.t;
  tel : O2_runtime.Telemetry.t;
  tel_on : bool;  (* cached for with_op's hot path *)
  tsinks : O2_runtime.Telemetry.sink array;  (* per-worker, prefetched *)
  tcoord : O2_runtime.Telemetry.sink;
  mutable nobjs : int;
  mutable home_ : int array;  (* obj -> home domain *)
  mutable read_only : bool array;  (* obj -> runs where submitted *)
  mutable names : string array;
  mutable sizes : int array;
  mutable ops_by_obj : int array array;  (* [domain].(obj), owner-written *)
  mutable submits : int array array;  (* [domain].(obj), owner-written *)
  mutable submits_snap : int array array;  (* coordinator-owned snapshot *)
  dstats : Slots.t;  (* per-domain d_* counters, owner-written *)
  mutable migrations_ : int;
  mutable periods : int;  (* completed rebalance steps *)
}

let create ?(telemetry = O2_runtime.Telemetry.off) ~domains () =
  let pool = Native_pool.create ~telemetry ~domains () in
  {
    pool;
    n = domains;
    probe = O2_runtime.Probe.create ();
    tel = telemetry;
    tel_on = O2_runtime.Telemetry.enabled telemetry;
    tsinks = O2_runtime.Telemetry.sink_array telemetry ~n:domains;
    tcoord = O2_runtime.Telemetry.coordinator telemetry;
    nobjs = 0;
    home_ = Array.make 16 0;
    read_only = Array.make 16 false;
    names = Array.make 16 "";
    sizes = Array.make 16 0;
    ops_by_obj = Array.init domains (fun _ -> Array.make (16 + Slots.stride) 0);
    submits = Array.init domains (fun _ -> Array.make (16 + Slots.stride) 0);
    submits_snap = Array.init domains (fun _ -> Array.make 16 0);
    dstats = Slots.create ~domains;
    migrations_ = 0;
    periods = 0;
  }

let shutdown t = Native_pool.shutdown t.pool
let pool t = t.pool
let name _ = "native"
let cores t = t.n
let probe t = t.probe
let objects t = t.nobjs
let home t o = t.home_.(o)

let grow_int_array a cap =
  let a' = Array.make cap 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure_capacity t =
  let cap = Array.length t.home_ in
  if t.nobjs >= cap then begin
    let cap' = cap * 2 in
    t.home_ <- grow_int_array t.home_ cap';
    let ro = Array.make cap' false in
    Array.blit t.read_only 0 ro 0 cap;
    t.read_only <- ro;
    t.sizes <- grow_int_array t.sizes cap';
    let names = Array.make cap' "" in
    Array.blit t.names 0 names 0 cap;
    t.names <- names;
    let pad r = grow_int_array r (cap' + Slots.stride) in
    t.ops_by_obj <- Array.map pad t.ops_by_obj;
    t.submits <- Array.map pad t.submits;
    t.submits_snap <- Array.map (fun r -> grow_int_array r cap') t.submits_snap
  end

let register ?(read_only = false) t ~size ~name =
  if size <= 0 then invalid_arg "Native_backend.register: size must be > 0";
  if not (Native_pool.quiescent t.pool) then
    invalid_arg "Native_backend.register: must be called at a quiesce point";
  ensure_capacity t;
  let o = t.nobjs in
  t.nobjs <- o + 1;
  t.home_.(o) <- o mod t.n;
  t.read_only.(o) <- read_only;
  t.sizes.(o) <- size;
  t.names.(o) <- name;
  o

let spawn t ~core ~name body = Native_pool.spawn t.pool ~core ~name body

let run t =
  Native_pool.drain t.pool;
  if t.tel_on then O2_runtime.Telemetry.note_quiesce t.tcoord

let telemetry t = t.tel

(* An op on a mutable object ships to its home; one on a read-only
   object runs on the submitting domain, which reads it from its own
   cache with no effect and no inbox push. Telemetry timestamps ride in
   locals: [t0]/[t1] live in the shipped continuation's frame, so a
   span that crosses domains keeps its submit-side clock reading with
   no shared state. Ints when off, so the disabled branch costs a
   cached-bool test and two zero loads. *)
let with_op t ?write obj f =
  let me = Native_pool.current_domain t.pool in
  if me < 0 then
    invalid_arg "Native_backend.with_op: called outside a pool worker";
  if obj < 0 || obj >= t.nobjs then
    invalid_arg "Native_backend.with_op: unknown object";
  let read_only = t.read_only.(obj) in
  (match write with
  | Some true when read_only ->
      invalid_arg "Native_backend.with_op: ~write:true on a read-only object"
  | _ -> ());
  let row = t.submits.(me) in
  row.(obj) <- row.(obj) + 1;
  let tel_on = t.tel_on in
  let t0 = if tel_on then O2_runtime.Telemetry.now_ns () else 0 in
  let token =
    if tel_on then O2_runtime.Telemetry.op_submit t.tsinks.(me) ~obj else -1
  in
  let h = t.home_.(obj) in
  let shipped = h <> me && not read_only in
  if shipped then begin
    Slots.incr t.dstats ~d:me d_ships_out;
    if tel_on then
      O2_runtime.Telemetry.note_ship_out t.tsinks.(me) ~token ~obj ~dst:h;
    O2_runtime.Api.ship_to h;
    (* The continuation resumed on the home's worker; from here until
       the next ship, everything runs there — including the telemetry
       writes, which now target the home's own sink. *)
    Slots.incr t.dstats ~d:h d_ships_in;
    if tel_on then
      O2_runtime.Telemetry.note_ship_in t.tsinks.(h) ~token ~obj ~src:me
  end;
  let here = if shipped then Native_pool.current_domain t.pool else me in
  let orow = t.ops_by_obj.(here) in
  orow.(obj) <- orow.(obj) + 1;
  let t1 =
    if tel_on then begin
      O2_runtime.Telemetry.note_start t.tsinks.(here) ~token ~obj
        ~remote:(here <> h);
      O2_runtime.Telemetry.now_ns ()
    end
    else 0
  in
  let r = f () in
  Slots.incr t.dstats ~d:here d_ops;
  if tel_on then begin
    let sk = t.tsinks.(here) in
    let t2 = O2_runtime.Telemetry.now_ns () in
    O2_runtime.Telemetry.note_end sk ~token ~obj;
    O2_runtime.Telemetry.observe_exec sk (t2 - t1);
    if shipped then begin
      O2_runtime.Telemetry.observe_shipped sk (t2 - t0);
      O2_runtime.Telemetry.observe_ship_delay sk (t1 - t0)
    end
    else O2_runtime.Telemetry.observe_home sk (t2 - t0)
  end;
  r

let touch _t ~write:_ ~obj:_ ~off:_ ~len:_ = ()

let compute _t cycles =
  for _ = 1 to cycles do
    ignore (Sys.opaque_identity 0)
  done

let ops_completed t = Slots.sum t.dstats ~domains:t.n d_ops

let object_ops t o =
  let acc = ref 0 in
  for d = 0 to t.n - 1 do
    acc := !acc + t.ops_by_obj.(d).(o)
  done;
  !acc

let ships t =
  (Slots.sum t.dstats ~domains:t.n d_ships_out,
   Slots.sum t.dstats ~domains:t.n d_ships_in)

let migrations t = t.migrations_

(* Submit delta for [o] from domain [d] since the last snapshot. *)
let delta t d o = t.submits.(d).(o) - t.submits_snap.(d).(o)

(* The period's submits on [o] that ship to its home: none for a
   read-only object, which runs where it is submitted. *)
let shipping_load t o =
  if t.read_only.(o) then 0
  else begin
    let w = ref 0 in
    for d = 0 to t.n - 1 do
      w := !w + delta t d o
    done;
    !w
  end

let rebalance t =
  if not (Native_pool.quiescent t.pool) then
    invalid_arg "Native_backend.rebalance: must run at a quiesce point";
  let moves = ref 0 in
  (* Pass 1 — affinity: home := the domain that submitted most ops this
     period (ties to the lower index; untouched objects stay put). Only
     mutable objects ship, so only their homes matter. *)
  for o = 0 to t.nobjs - 1 do
    if not t.read_only.(o) then begin
      let best = ref (-1) and best_n = ref 0 in
      for d = 0 to t.n - 1 do
        let n = delta t d o in
        if n > !best_n then begin
          best := d;
          best_n := n
        end
      done;
      if !best >= 0 && !best <> t.home_.(o) then begin
        t.home_.(o) <- !best;
        incr moves
      end
    end
  done;
  (* Pass 2 — spill: while a home carries more than ~1.5x the average
     period load that ships, move its coldest active shipping objects to
     the least loaded
     domain. Deterministic: ascending object scans, ties to lower
     indices; bounded by one pass over the objects. *)
  let load = Array.make t.n 0 in
  let total = ref 0 in
  for o = 0 to t.nobjs - 1 do
    let w = shipping_load t o in
    load.(t.home_.(o)) <- load.(t.home_.(o)) + w;
    total := !total + w
  done;
  let cap = (!total * 3 / (2 * t.n)) + 1 in
  let arg_extreme better =
    let best = ref 0 in
    for d = 1 to t.n - 1 do
      if better load.(d) load.(!best) then best := d
    done;
    !best
  in
  let budget = ref t.nobjs in
  let continue_ = ref (t.n > 1) in
  while !continue_ && !budget > 0 do
    let hot = arg_extreme ( > ) in
    if load.(hot) <= cap then continue_ := false
    else begin
      (* The coldest active object homed on [hot]. *)
      let victim = ref (-1) and victim_w = ref max_int in
      for o = 0 to t.nobjs - 1 do
        if t.home_.(o) = hot then begin
          let w = shipping_load t o in
          if w > 0 && w < !victim_w then begin
            victim := o;
            victim_w := w
          end
        end
      done;
      if !victim < 0 then continue_ := false
      else begin
        let cold = arg_extreme ( < ) in
        if cold = hot || load.(hot) - !victim_w < load.(cold) + !victim_w
        then continue_ := false
        else begin
          t.home_.(!victim) <- cold;
          load.(hot) <- load.(hot) - !victim_w;
          load.(cold) <- load.(cold) + !victim_w;
          incr moves;
          decr budget
        end
      end
    end
  done;
  (* Close the period: snapshot submits, publish counters. *)
  for d = 0 to t.n - 1 do
    Array.blit t.submits.(d) 0 t.submits_snap.(d) 0 t.nobjs
  done;
  t.migrations_ <- t.migrations_ + !moves;
  t.periods <- t.periods + 1;
  if t.tel_on then O2_runtime.Telemetry.note_rebalance t.tcoord ~moves:!moves;
  if O2_runtime.Probe.active t.probe then
    O2_runtime.Probe.emit t.probe
      (O2_runtime.Probe.Rebalanced
         { time = t.periods; moves = !moves; demotions = 0 })
