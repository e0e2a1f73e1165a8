(** Flight-recorder sinks: the one event schema both backends record.

    Real domains need a sink per writer. On the native backend worker
    [d] owns sink [d] and the coordinator (the thread calling
    [drain]/[rebalance]) owns sink [domains]; the simulator's
    [O2_obs.Recorder] maps simulated core [c] to sink [c] and the
    CoreTime monitor to the coordinator sink. The owner is the only
    writer — no atomics, no locks, no cross-domain writes on the hot
    path — and readers (the merge, span reconstruction, metrics and the
    Perfetto writer in [O2_obs]) may only look while the writers are
    quiescent.

    Each sink holds

    - a bounded ring of fixed-width records, stamped with
      [CLOCK_MONOTONIC] nanoseconds by the native writers or with
      virtual cycles through {!record_at} / {!op_submit_at}, clamped
      per-writer to be nondecreasing (so each ring is sorted by
      construction and the k-way merge needs no sort). A full ring drops
      new records (drop-newest) and counts them: the retained window is
      a prefix;
    - plain counters (steals, ships, parks, wakes, inbox batches;
      native writers only);
    - log2-bucket latency accumulators ({!acc}, same bucket layout as
      [O2_obs.Hist], imported via [Hist.of_raw]) fed by [with_op] with
      timestamps carried in locals across domain handoffs — latency
      percentiles need no ring traffic, which is what makes
      metrics-only telemetry ([ring_capacity = 0]) cheap enough to
      leave attached while measuring throughput.

    Zero-cost when off: call sites guard on {!enabled}, so the disabled
    instance never reaches a clock read or an array write; the guarded
    paths are pinned allocation-free by suite_hotpath and the
    o2staticcheck manifest. *)

type t
type sink

(** {1 Lifecycle} *)

val create : ?ring_capacity:int -> ?sample:int -> domains:int -> unit -> t
(** Telemetry for a pool of [domains] workers ([domains + 1] sinks, the
    extra one for the coordinator). [ring_capacity] (default [2^16]) is
    records per sink; [0] means metrics-only — no ring events at all.
    [sample] (default 1) keeps the span events of 1-in-[sample] ops in
    the ring ([0] = none); steals, parks, wakes, inbox batches,
    rebalances and quiesces are always recorded. At most 1023 domains
    (token packing).
    @raise Invalid_argument on out-of-range arguments. *)

val off : t
(** The disabled instance: {!enabled} is [false], sinks are inert. *)

val enabled : t -> bool
val domains : t -> int
val sample : t -> int

val sink : t -> int -> sink
(** Worker [d]'s sink (index [domains] is the coordinator's). On the
    disabled instance returns an inert dummy for any index. *)

val coordinator : t -> sink

val sink_array : t -> n:int -> sink array
(** The [n] worker sinks as an array (coordinator excluded), or [n]
    inert dummies when disabled — prefetched by the pool/backend so hot
    paths index an array instead of calling {!sink}.
    @raise Invalid_argument if enabled and [n <> domains]. *)

(** {1 The clock} *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds (bechamel's noalloc stub; the
    int64 result is boxed once per call — only ever paid with telemetry
    on). *)

(** {1 Event kinds} *)

type kind =
  | Steal  (** [a] = victim domain *)
  | Park
  | Wake
  | Inbox_batch  (** [a] = tasks delivered by one drain *)
  | Spawned  (** [a] = target domain *)
  | Submit  (** [a] = token, [b] = obj, [c] = submitter's thread id
                (the simulated tid; [-1] natively) *)
  | Ship_out  (** [a] = token, [b] = obj, [c] = destination domain *)
  | Ship_in  (** [a] = token, [b] = obj, [c] = source domain *)
  | Start
      (** [a] = token, [b] = obj, [c] = 1 iff the object has no home (the
          op runs wherever its thread is), 0 when it runs at its home *)
  | End  (** [a] = token, [b] = obj *)
  | Rebalance  (** [a] = moves, [b] = demotions *)
  | Quiesce
  | Decision  (** [a] = decision kind code, [b] = object base, [c] = core *)

val kind_name : kind -> string

(** {1 Writers — owner domain only} *)

val note_steal : sink -> victim:int -> unit
val note_park : sink -> unit
val note_wake : sink -> unit
val note_inbox_batch : sink -> count:int -> unit
val note_spawned : sink -> core:int -> unit

val op_submit : sink -> obj:int -> int
(** Mint this op's token and record its [Submit] event if sampled in.
    Returns [-1] when sampled out — pass it along anyway; the ship/
    start/end writers ignore negative tokens while still counting. *)

val op_submit_at : sink -> ts:int -> obj:int -> arg:int -> int
(** {!op_submit} at an explicit timestamp, with [arg] in the [Submit]
    record's spare field — how the simulator's recorder mints tokens in
    virtual cycles. *)

val note_ship_out : sink -> token:int -> obj:int -> dst:int -> unit
val note_ship_in : sink -> token:int -> obj:int -> src:int -> unit
val note_start : sink -> token:int -> obj:int -> unit
val note_end : sink -> token:int -> obj:int -> unit

val observe_home : sink -> int -> unit
(** Submit-to-end nanoseconds of an op that ran on its submitter. *)

val observe_shipped : sink -> int -> unit
(** Submit-to-end nanoseconds of an op that shipped to its home. *)

val observe_ship_delay : sink -> int -> unit
(** Submit-to-start nanoseconds, shipped ops only. *)

val observe_exec : sink -> int -> unit
(** Start-to-end nanoseconds, all ops. *)

val note_rebalance : sink -> moves:int -> unit
val note_quiesce : sink -> unit

val record_at :
  sink -> ts:int -> kind:kind -> a:int -> b:int -> c:int -> unit
(** Low-level append with an explicit timestamp (still clamped to the
    sink's nondecreasing order). For tests and tools; the instrumented
    paths use the typed writers above. *)

(** {1 Tokens} *)

val token_sink : int -> int
(** The sink a (nonnegative) token was minted on. *)

val token_seq : int -> int

(** {1 Readers — quiescence only} *)

val sink_id : sink -> int
val length : sink -> int
(** Records retained in the ring. *)

val dropped : sink -> int
(** Records dropped because the ring was full (drop-newest). *)

val ts : sink -> int -> int
val kind : sink -> int -> kind
val arg0 : sink -> int -> int
val arg1 : sink -> int -> int
val arg2 : sink -> int -> int

val steals : sink -> int
val ships_out : sink -> int
val ships_in : sink -> int
val parks : sink -> int
val wakes : sink -> int
val spawns : sink -> int
val inbox_batches : sink -> int
val inbox_tasks : sink -> int
val max_batch : sink -> int
val ops_submitted : sink -> int

(** {1 Latency accumulators} *)

type acc
(** Log2-bucket accumulator, same 63-bucket layout as [O2_obs.Hist]
    (bucket 0 holds 0, bucket [k >= 1] holds [2^(k-1), 2^k)); import
    with [Hist.of_raw]. *)

val acc_counts : acc -> int array
(** The live bucket array — read-only by contract, do not mutate. *)

val acc_total : acc -> int
val acc_sum : acc -> int
val acc_min : acc -> int
(** [max_int] when empty, like [Hist]. *)

val acc_max : acc -> int

val lat_home : sink -> acc
val lat_shipped : sink -> acc
val lat_ship_delay : sink -> acc
val lat_exec : sink -> acc

(** {1 Aggregates} *)

val fold_sinks : t -> init:'a -> f:('a -> sink -> 'a) -> 'a
(** Folds over all [domains + 1] sinks; [init] on the disabled
    instance. *)

val total_dropped : t -> int
val total_events : t -> int
(** Retained + dropped across every sink. *)
