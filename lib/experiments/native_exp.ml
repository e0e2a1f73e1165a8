(* The native-backend experiment: the one table in the catalogue whose
   numbers are wall-clock, not simulated cycles.

   Two halves, always printed together so neither can be quoted without
   the other: (1) the simulator-as-oracle cross-check — the same kv/dir
   programs on both backends must agree bit-for-bit (O2_native.Oracle) —
   and (2) measured ops/sec for the same workloads on real domains
   across a 1/2/4 ladder. The ladder is taken literally (no clamp): on a
   host with fewer cores the extra domains time-share and the curve goes
   flat or down, which is itself the honest number — the CLI's --domains
   flag is what clamps (O2_runtime.Domain_pool.clamped). *)

module NB = O2_native.Native_backend
module Kv = O2_native.Backend_kv.Make (O2_native.Native_backend)
module Dir = O2_native.Backend_dir.Make (O2_native.Native_backend)
module Op = O2_native.Op_program
module Oracle = O2_native.Oracle
module Tel = O2_runtime.Telemetry

type row = {
  workload : string;
  domains : int;
  clients : int;
  ops : int;  (** Completed backend ops, from the backend's own counter. *)
  seconds : float;
  ops_per_sec : float;
  p50_ns : float;  (** Submit-to-end wall-clock latency percentiles... *)
  p99_ns : float;  (** ...from metrics-only telemetry (no ring traffic) *)
  p999_ns : float;  (** left attached during the measured window. *)
}

(* Submit-to-end latency across home and shipped ops, merged over every
   sink — the telemetry stays in metrics-only mode (ring_capacity 0),
   so the percentiles cost two clock reads per op, not a trace. *)
let latency_hist tel =
  let m = O2_obs.Native_tel.metrics tel in
  let h = O2_obs.Hist.create () in
  O2_obs.Hist.merge_into ~into:h (O2_obs.Metrics.hist m "op_ns/home");
  O2_obs.Hist.merge_into ~into:h (O2_obs.Metrics.hist m "op_ns/shipped");
  h

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Result sink: each client folds its op results into its own slot so
   nothing is dead code, without cross-client synchronization. *)
let fold_sink sinks c acc = sinks.(c) <- sinks.(c) lxor acc

let kv_throughput ~domains ~clients ~ops_per_client ~rounds =
  let tel = Tel.create ~ring_capacity:0 ~sample:0 ~domains () in
  let b = NB.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> NB.shutdown b)
    (fun () ->
      let store =
        Kv.create b ~name:"kv" ~buckets:64 ~slots_per_bucket:32 ()
      in
      let sinks = Array.make clients 0 in
      let round r =
        for c = 0 to clients - 1 do
          let prog =
            Op.kv_program ~clients ~client:c ~ops:ops_per_client
              ~keyspace:1024 ~seed:(811 + (97 * r))
          in
          NB.spawn b ~core:(c mod domains) ~name:"kv-client" (fun () ->
              let acc = ref 0 in
              Array.iter
                (fun op ->
                  let raw =
                    match op with
                    | Op.Get k -> Kv.get store ~key:k
                    | Op.Put (k, v) ->
                        if Kv.put store ~key:k ~value:v then 1 else 0
                    | Op.Delete k -> if Kv.delete store ~key:k then 1 else 0
                  in
                  acc := !acc lxor Op.kv_result op ~raw)
                prog;
              fold_sink sinks c !acc)
        done;
        NB.run b
      in
      let (), seconds =
        time (fun () ->
            for r = 0 to rounds - 1 do
              round r;
              if r < rounds - 1 then NB.rebalance b
            done)
      in
      ignore (Sys.opaque_identity sinks);
      let ops = NB.ops_completed b in
      let lat = latency_hist tel in
      {
        workload = "kv_store";
        domains;
        clients;
        ops;
        seconds;
        ops_per_sec = (if seconds > 0. then float_of_int ops /. seconds else nan);
        p50_ns = O2_obs.Hist.p50 lat;
        p99_ns = O2_obs.Hist.p99 lat;
        p999_ns = O2_obs.Hist.p999 lat;
      })

let dir_throughput ~domains ~clients ~ops_per_client ~rounds =
  let tel = Tel.create ~ring_capacity:0 ~sample:0 ~domains () in
  let b = NB.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> NB.shutdown b)
    (fun () ->
      let fs =
        Dir.create b ~name:"dir" ~dirs:24 ~entries_per_dir:48 ()
      in
      let sinks = Array.make clients 0 in
      let round r =
        for c = 0 to clients - 1 do
          let prog =
            Op.dir_program ~dirs:24 ~entries_per_dir:48 ~ops:ops_per_client
              ~seed:(131 * ((r * clients) + c + 1))
          in
          NB.spawn b ~core:(c mod domains) ~name:"dir-client" (fun () ->
              let acc = ref 0 in
              Array.iter
                (fun (dir, key) -> acc := !acc lxor Dir.lookup fs ~dir ~key)
                prog;
              fold_sink sinks c !acc)
        done;
        NB.run b
      in
      let (), seconds =
        time (fun () ->
            for r = 0 to rounds - 1 do
              round r;
              if r < rounds - 1 then NB.rebalance b
            done)
      in
      ignore (Sys.opaque_identity sinks);
      let ops = NB.ops_completed b in
      let lat = latency_hist tel in
      {
        workload = "dir_workload";
        domains;
        clients;
        ops;
        seconds;
        ops_per_sec = (if seconds > 0. then float_of_int ops /. seconds else nan);
        p50_ns = O2_obs.Hist.p50 lat;
        p99_ns = O2_obs.Hist.p99 lat;
        p999_ns = O2_obs.Hist.p999 lat;
      })

let ladder ~extra =
  let base = [ 1; 2; 4 ] in
  if extra > 0 && not (List.mem extra base) then base @ [ extra ] else base

let measure ~quick ~domains () =
  let kv_ops = Harness.scaled ~quick 20_000
  and dir_ops = Harness.scaled ~quick 20_000 in
  List.concat_map
    (fun d ->
      [
        kv_throughput ~domains:d ~clients:8 ~ops_per_client:kv_ops ~rounds:3;
        dir_throughput ~domains:d ~clients:8 ~ops_per_client:dir_ops ~rounds:2;
      ])
    (ladder ~extra:domains)

let oracle_reports ~domains =
  List.concat_map
    (fun d ->
      [
        ("kv_store", Oracle.kv_cross_check ~domains:d ());
        ("dir_workload", Oracle.dir_cross_check ~domains:d ());
      ])
    (ladder ~extra:domains)

let print_rows ppf rows =
  Format.fprintf ppf "  %-13s %8s %8s %10s %9s %12s %9s %9s %9s@." "workload"
    "domains" "clients" "ops" "seconds" "ops/sec" "p50(ns)" "p99(ns)"
    "p999(ns)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-13s %8d %8d %10d %9.3f %12.0f %9.0f %9.0f %9.0f@."
        r.workload r.domains r.clients r.ops r.seconds r.ops_per_sec r.p50_ns
        r.p99_ns r.p999_ns)
    rows

let run ~quick ~domains ppf =
  Format.fprintf ppf "== Native backend: real domains, wall-clock ops/sec ==@.";
  Format.fprintf ppf
    "   (paper section 3: the O2 model is meant to run on real cores;@.";
  Format.fprintf ppf
    "    the simulator stays the oracle — same programs, same results)@.@.";
  Format.fprintf ppf "  oracle cross-check (simulator vs native):@.";
  let oracle = oracle_reports ~domains in
  List.iter
    (fun (w, r) ->
      Format.fprintf ppf "    %-13s %a@." w Oracle.pp_report r)
    oracle;
  let ok = List.for_all (fun (_, r) -> r.Oracle.ok) oracle in
  Format.fprintf ppf "@.  throughput (host has %d core(s)):@."
    (O2_runtime.Domain_pool.default_jobs ());
  let rows = measure ~quick ~domains () in
  print_rows ppf rows;
  if not ok then
    Format.fprintf ppf "@.  ORACLE MISMATCH — the table above is suspect@.";
  Format.fprintf ppf "@.";
  (ok, oracle, rows)

(* Hand-rolled JSON, matching BENCH_fig4.json's style (no json dep). *)
let json ~quick ~oracle ~rows =
  let row_json r =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"domains\": %d, \"clients\": %d, \"ops\": \
       %d, \"seconds\": %.3f, \"ops_per_sec\": %.0f, \"p50_ns\": %.0f, \
       \"p99_ns\": %.0f, \"p999_ns\": %.0f}"
      r.workload r.domains r.clients r.ops r.seconds r.ops_per_sec r.p50_ns
      r.p99_ns r.p999_ns
  in
  let oracle_json (w, r) =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"domains\": %d, \"ok\": %b, \"total_ops\": \
       %d, \"ships_out\": %d, \"ships_in\": %d, \"migrations\": %d, \
       \"steals\": %d}"
      w r.Oracle.domains r.Oracle.ok r.Oracle.total_ops
      (fst r.Oracle.native_ships) (snd r.Oracle.native_ships)
      r.Oracle.native_migrations r.Oracle.native_steals
  in
  String.concat "\n"
    ([
       "{";
       "  \"benchmark\": \"native backend wall-clock ops/sec\",";
       "  \"latency_unit\": \"wall-clock ns\",";
       Printf.sprintf "  \"quick\": %b," quick;
       Printf.sprintf "  \"available_cores\": %d,"
         (O2_runtime.Domain_pool.default_jobs ());
       Printf.sprintf "  \"oracle_ok\": %b,"
         (List.for_all (fun (_, r) -> r.Oracle.ok) oracle);
       "  \"oracle\": [";
     ]
    @ [ String.concat ",\n" (List.map oracle_json oracle) ]
    @ [ "  ],"; "  \"rows\": [" ]
    @ [ String.concat ",\n" (List.map row_json rows) ]
    @ [ "  ]"; "}"; "" ])

let write_json ~path ~quick ~oracle ~rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json ~quick ~oracle ~rows))

(* The observed cell: one kv run with the full flight recorder attached
   — ring events on, op spans sampled 1-in-[sample] — feeding the o2top
   readout, the per-domain table, and the Perfetto export. Deliberately
   separate from the measured ladder above, whose telemetry stays
   metrics-only so ring traffic never contaminates the throughput
   numbers. *)
let observed_cell ~quick ~domains ~sample ~metrics ~trace ppf =
  let tel = Tel.create ~ring_capacity:(1 lsl 18) ~sample ~domains () in
  let b = NB.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> NB.shutdown b)
    (fun () ->
      let store =
        Kv.create b ~name:"kv" ~buckets:64 ~slots_per_bucket:32 ()
      in
      let clients = 8 in
      let ops_per_client = Harness.scaled ~quick 4_000 in
      let rounds = 3 in
      let sinks = Array.make clients 0 in
      for r = 0 to rounds - 1 do
        for c = 0 to clients - 1 do
          let prog =
            Op.kv_program ~clients ~client:c ~ops:ops_per_client
              ~keyspace:1024 ~seed:(499 + (31 * r))
          in
          NB.spawn b ~core:(c mod domains) ~name:"kv-client" (fun () ->
              let acc = ref 0 in
              Array.iter
                (fun op ->
                  let raw =
                    match op with
                    | Op.Get k -> Kv.get store ~key:k
                    | Op.Put (k, v) ->
                        if Kv.put store ~key:k ~value:v then 1 else 0
                    | Op.Delete k -> if Kv.delete store ~key:k then 1 else 0
                  in
                  acc := !acc lxor Op.kv_result op ~raw)
                prog;
              fold_sink sinks c !acc)
        done;
        NB.run b;
        if r < rounds - 1 then NB.rebalance b
      done;
      ignore (Sys.opaque_identity sinks);
      if metrics then begin
        Format.fprintf ppf
          "  observed cell (kv_store, %d domain(s), flight recorder \
           attached):@.@."
          domains;
        Format.pp_print_string ppf
          (O2_obs.O2top.render ~units:"wall-clock ns" ~capture:tel
             (O2_obs.Native_tel.metrics tel));
        Format.fprintf ppf "@.-- per-domain breakdown --@.";
        Format.pp_print_string ppf (O2_obs.Native_tel.domain_table tel);
        Format.fprintf ppf "@."
      end;
      Option.iter
        (fun path ->
          O2_obs.Trace_export.write_file (O2_obs.Trace_export.of_native tel)
            ~path;
          Format.fprintf ppf
            "  wrote native Perfetto trace to %s (wall-clock ns, one track \
             per domain + coordinator)@."
            path)
        trace)

let run_cli ~quick ~domains ~json:json_path ~metrics ~trace ~trace_sample ppf =
  let domains = O2_runtime.Domain_pool.clamped ~what:"--domains" domains in
  let ok, oracle, rows = run ~quick ~domains ppf in
  if metrics || trace <> None then
    observed_cell ~quick ~domains ~sample:trace_sample ~metrics ~trace ppf;
  Option.iter
    (fun path ->
      write_json ~path ~quick ~oracle ~rows;
      Format.fprintf ppf "  wrote %s@." path)
    json_path;
  ok
