(** Quiescent-side readers for a {!O2_runtime.Telemetry} capture — the
    one span reconstructor for both backends.

    Timestamps are whatever the writers stamped: [CLOCK_MONOTONIC]
    nanoseconds on the native backend, virtual cycles when the
    simulator's {!Recorder} wrote the capture. Nothing here converts
    between them; {!Trace_export} labels the unit. Read only after the
    writers are quiescent ([Native_pool.drain] returned, or the
    simulation stopped): the sinks are single-writer and unsynchronised
    by design. *)

type event = {
  ts : int;  (** Monotonic per sink. *)
  sink : int;
      (** Writer: worker index / simulated core, or [domains] = the
          coordinator (the CoreTime monitor in simulation). *)
  kind : O2_runtime.Telemetry.kind;
  a : int;
  b : int;
  c : int;
}

val merged_events : O2_runtime.Telemetry.t -> event array
(** The k-way merge of every sink's ring. Each ring is nondecreasing by
    construction (writers clamp their stamps), so this is a cursor
    merge with no sort: globally nondecreasing [ts], ties broken toward
    the lower sink id — a total, deterministic order. Empty on the
    disabled instance. *)

(** One operation's reconstructed life, possibly spanning two sinks:
    submitted on [submit_sink], executed on [exec_sink] (they differ
    exactly when the op shipped or migrated). *)
type span = {
  token : int;  (** [-1] for an op whose events are sampled out. *)
  obj : int;  (** Object id (native) or object base address (simulator). *)
  tid : int;  (** The submitting simulated thread; [-1] natively. *)
  submit_sink : int;
  submit_ts : int;
  ship_out_ts : int;  (** [-1] when the op ran where it was submitted. *)
  ship_in_ts : int;
  ship_dst : int;
  exec_sink : int;
  remote : bool;
      (** The object had no home: the op ran wherever its thread was. *)
  start_ts : int;
  end_ts : int;
}

val unstarted : token:int -> obj:int -> tid:int -> sink:int -> ts:int -> span
(** A span submitted on [sink] at [ts], with every later field unset
    ([-1] / [false]) — the shape the reconstructor and the simulator's
    recorder fill in event by event. *)

val spans_of_events : event array -> span list * int
(** Replay a merged stream into completed spans (in the order their
    [End] events appear) plus the count of incomplete ones: tokens whose
    [Submit], [Start] or [End] is not in the capture — dropped by the
    ring bound, or the op was still running when the capture was read.
    Each incomplete token counts once, however many of its events
    survived; they are withheld rather than emitted half-built. Events
    are joined by token, so the result does not depend on how equal
    timestamps on different sinks were ordered by the merge. Records
    with a negative token (moves outside any op) never form spans. *)

val spans : O2_runtime.Telemetry.t -> span list * int
(** [spans_of_events (merged_events tel)]: completed spans and the
    incomplete count from one merge and one replay. *)

val summary : O2_runtime.Telemetry.t -> string
(** ["N spans (I incomplete), R events retained, D dropped"] — the
    capture's accounting in one line. *)

(** {1 Classification and breakdown}

    The same definitions on either clock. *)

type op_class =
  | Home_hit  (** The object has a home and the op ran there without moving. *)
  | Remote  (** The object has no home; served wherever the thread ran. *)
  | Migrated  (** The op moved (shipped) to reach its object's home. *)

val classify : span -> op_class
val class_name : op_class -> string
(** ["home-hit"], ["remote"], ["migrated"]. *)

val shipped : span -> bool

val latency : span -> int
(** Submit → end. *)

val queue : span -> int
(** Submit → departure, or → start when the op did not move: annotation
    overhead plus the wait to leave the submitter. *)

val migrate : span -> int
(** Departure → start (0 when the op did not move): the transfer plus
    landing, including any inbox wait at the home. *)

val exec : span -> int
(** Start → end: the operation body. *)

(** {1 Native aggregates} *)

val metrics : O2_runtime.Telemetry.t -> Metrics.t
(** Import a native capture into a {!Metrics} registry: the per-sink
    latency accumulators merge into [op_ns/home], [op_ns/shipped],
    [op_ns/ship_delay] and [op_ns/exec] histograms (via
    {!Hist.of_raw}), and the counters (steals, ships, parks, wakes,
    spawns, inbox batches/tasks, ops submitted, events
    retained/dropped) sum across sinks. Render with
    [O2top.render ~units:"wall-clock ns"]. *)

val domain_table : O2_runtime.Telemetry.t -> string
(** A per-domain breakdown (one row per worker plus the coordinator):
    ops submitted, steals, ships, parks, inbox batching, and each
    sink's ring accounting — retained events and drops, so lossy
    captures are visible right in the readout. *)
