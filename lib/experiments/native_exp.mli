(** The native-backend experiment: oracle cross-check plus measured
    (wall-clock) ops/sec on real OCaml 5 domains.

    Unlike every other table in the catalogue these numbers are host
    time, not simulated cycles, so they vary run to run and machine to
    machine; the oracle half — identical logical results on both
    backends — is the part CI gates on. The domain ladder [1; 2; 4] is
    taken literally (oversubscribed domains time-share, honestly
    flattening the curve); only the CLI's --domains flag clamps, via
    {!O2_runtime.Domain_pool.clamped}. *)

type row = {
  workload : string;  (** "kv_store" or "dir_workload". *)
  domains : int;
  clients : int;
  ops : int;  (** Completed backend ops, from the backend's counter. *)
  seconds : float;
  ops_per_sec : float;
  p50_ns : float;
      (** Submit-to-end wall-clock latency percentiles (home and shipped
          ops merged), from metrics-only telemetry left attached during
          the measured window — two clock reads per op, no ring
          traffic. *)
  p99_ns : float;
  p999_ns : float;
}

val measure : quick:bool -> domains:int -> unit -> row list
(** Throughput rows for both workloads at domains [1; 2; 4] plus
    [domains] when distinct. [quick] quarters the per-client op count. *)

val oracle_reports :
  domains:int -> (string * O2_native.Oracle.report) list
(** Simulator-vs-native cross-checks over the same ladder. *)

val run :
  quick:bool ->
  domains:int ->
  Format.formatter ->
  bool * (string * O2_native.Oracle.report) list * row list
(** Print the experiment (oracle table then throughput table); the
    returned bool is the conjunction of oracle [ok]s. *)

val write_json :
  path:string ->
  quick:bool ->
  oracle:(string * O2_native.Oracle.report) list ->
  rows:row list ->
  unit
(** BENCH_native.json: oracle verdicts and throughput rows. *)

val observed_cell :
  quick:bool ->
  domains:int ->
  sample:int ->
  metrics:bool ->
  trace:string option ->
  Format.formatter ->
  unit
(** One run with the full flight recorder attached (ring capacity
    2^18, op spans sampled 1-in-[sample]): kv clients on mutable buckets
    (their ops ship) and dir clients on read-only directories (theirs
    run where submitted) on one backend. With [metrics] prints the
    o2top latency/counter readout (unit-labeled wall-clock ns) and the
    per-domain breakdown, with [trace] writes the Perfetto export.
    Separate from {!measure}'s ladder, whose telemetry stays
    metrics-only so ring traffic never touches the throughput rows. *)

val run_cli :
  quick:bool ->
  domains:int ->
  json:string option ->
  metrics:bool ->
  trace:string option ->
  trace_sample:int ->
  Format.formatter ->
  bool
(** The [o2sim run --backend native] entry point: clamps [domains]
    through {!O2_runtime.Domain_pool.clamped}, runs {!run}, then the
    {!observed_cell} when [metrics] or [trace] ask for it, and writes
    [json] when given. Returns the oracle verdict — callers should exit
    nonzero on [false]. *)
