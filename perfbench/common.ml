(* Clock, order statistics, spans and metric output shared by every
   workload. Everything here is benchmark-side: the program under test is
   only ever reached through its public functions. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9

(* Exact order statistic (nearest rank) of a list of samples. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5

(* Percentile of [(value, weight)] pairs: the smallest value whose
   cumulative weight reaches [q] of the total. *)
let weighted_quantile pairs q =
  let a = Array.of_list pairs in
  Array.sort compare a;
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 a in
  let target = q *. float_of_int total in
  let acc = ref 0 and result = ref 0.0 in
  (try
     Array.iter
       (fun (v, w) ->
         acc := !acc + w;
         result := v;
         if float_of_int !acc >= target then raise Exit)
       a
   with Exit -> ());
  !result

(* Exact latency percentiles at 1 ns resolution below [dense] ns, with the
   rare slower samples kept individually: a counting sort, so one round's
   hundred thousand samples cost two passes and no sorting. *)
module Lat = struct
  let dense = 1 lsl 20

  type t = {
    counts : int array;
    mutable n : int;
    mutable slow : int list;
  }

  let create () = { counts = Array.make dense 0; n = 0; slow = [] }

  let add t ns =
    let ns = max 0 ns in
    t.n <- t.n + 1;
    if ns < dense then t.counts.(ns) <- t.counts.(ns) + 1
    else t.slow <- ns :: t.slow

  (* Nearest-rank percentile: the smallest sample with at least [q * n]
     samples at or below it. *)
  let percentile t q =
    if t.n = 0 then 0.0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      let acc = ref 0 and i = ref 0 in
      while !i < dense && !acc + t.counts.(!i) < rank do
        acc := !acc + t.counts.(!i);
        incr i
      done;
      if !i < dense then float_of_int !i
      else
        let slow = Array.of_list t.slow in
        Array.sort compare slow;
        float_of_int slow.(min (Array.length slow - 1) (rank - !acc - 1))
    end

  (* Percentiles of [samples] alone, using [t] (which must be empty) as
     scratch and leaving it empty again: O(samples + largest dense value). *)
  let percentiles_of t samples qs =
    Array.iter (add t) samples;
    let ps = Array.map (percentile t) qs in
    Array.iter
      (fun ns ->
        let ns = max 0 ns in
        if ns < dense then t.counts.(ns) <- t.counts.(ns) - 1)
      samples;
    t.n <- 0;
    t.slow <- [];
    ps
end

(* Percentile of a log2-bucket accumulator (bucket 0 holds 0, bucket k
   holds [2^(k-1), 2^k)), interpolated linearly inside the bucket. This is
   how the native telemetry stores its latencies, so values read through it
   are estimates, never exact. *)
let log2_percentile counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank = q *. float_of_int total in
    let acc = ref 0.0 and result = ref 0.0 and found = ref false in
    Array.iteri
      (fun k c ->
        if (not !found) && c > 0 then
          if !acc +. float_of_int c >= rank then begin
            found := true;
            if k = 0 then result := 0.0
            else begin
              let lo = Float.pow 2.0 (float_of_int (k - 1)) in
              let frac = (rank -. !acc) /. float_of_int c in
              result := lo +. (frac *. lo)
            end
          end
          else acc := !acc +. float_of_int c)
      counts;
    !result
  end

(* Spans around the benchmark's calls into the program: name, start, end
   and the enclosing span. Coordinator calls are recorded by [wrap], which
   keeps the parent stack; calls made from inside client bodies on worker
   domains are buffered by the caller and filed with [add_client]
   afterwards. The store is in memory until [write]. *)
module Span = struct
  let on = ref false
  let names = ref [||]
  let starts = ref [||]
  let ends = ref [||]
  let parents = ref [||]
  let len = ref 0
  let stack = ref []
  let client_cap = 65_536
  let client_kept = ref 0
  let client_dropped = ref 0

  let grow () =
    let cap = max 1024 (2 * Array.length !starts) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 !len;
      b
    in
    names := extend !names "";
    starts := extend !starts 0;
    ends := extend !ends 0;
    parents := extend !parents (-1)

  let push name t0 t1 parent =
    if !len = Array.length !starts then grow ();
    let id = !len in
    !names.(id) <- name;
    !starts.(id) <- t0;
    !ends.(id) <- t1;
    !parents.(id) <- parent;
    incr len;
    id

  let current () = match !stack with id :: _ -> id | [] -> -1

  (* Run [f] inside a span; returns its result and the span id (-1 when
     spans are off), so client-side spans can name it as their parent. *)
  let wrap_id name f =
    if not !on then (f (), -1)
    else begin
      let id = push name (now_ns ()) 0 (current ()) in
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          !ends.(id) <- now_ns ())
        (fun () -> (f (), id))
    end

  let wrap name f = fst (wrap_id name f)

  let add_client name ~start ~stop ~parent =
    if !client_kept < client_cap then begin
      incr client_kept;
      ignore (push name start stop parent)
    end
    else incr client_dropped

  let count () = !len

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "id,parent,name,start_ns,end_ns\n";
        for i = 0 to !len - 1 do
          Printf.fprintf oc "%d,%d,%s,%d,%d\n" i !parents.(i) !names.(i)
            !starts.(i) !ends.(i)
        done)
end

(* The values one run reports. End-to-end metrics carry the number of
   samples their value summarises; per-layer metrics do not need one. *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
           (json_float m.value) m.unit_)
       ms)
