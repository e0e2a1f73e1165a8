(** The simulator's flight recorder: a probe listener that writes the
    engine's event stream into a {!O2_runtime.Telemetry} capture — the
    same width-5 records the native backend writes — stamped in virtual
    cycles, and keeps a {!Metrics} registry up to date, all without
    touching simulator state (listeners observe; they never perform
    {!O2_runtime.Api} effects).

    Costs are paid only when attached: with no listener the engine's
    probes are guarded out entirely (see {!O2_runtime.Probe.active}).

    {2 The capture}

    Sink [c] is simulated core [c]; the coordinator sink is the CoreTime
    monitor. The probe events map onto the shared schema:

    - [Op_requested] → [Submit] on the requesting core, with a token
      minted per op (1-in-[sample] ops get one; the rest are sampled out
      of the ring) and the simulated thread id in the spare field;
    - [Thread_moved] → [Ship_out] on the source core plus [Ship_in] on
      the destination, at the same cycle. The first move of a requested,
      not yet started op carries its token; any other move (the
      migrate-back after [ct_end], scheduler moves) carries token [-1]:
      it still draws a flow arrow but never forms a span;
    - [Op_started] → [Start], whose spare field is 1 iff the object is
      unassigned (the op runs wherever its thread is);
    - [Op_ended] → [End]; [Rebalanced] → [Rebalance] (moves, demotions);
      [Decision] → [Decision] (kind code, object base, core) on the
      monitor sink.

    Memory, lock and thread-lifecycle events only feed counters.
    {!Native_tel.spans} reconstructs the operation spans; {!Trace_export}
    writes them as Perfetto JSON. A full sink drops new records and
    counts them (drop-newest).

    {2 Metrics maintained}

    Every op is observed, whatever the sampling and ring bound: a
    per-thread stack of open ops carries each op's timestamps, and the
    finished op is classified and broken down by the same
    {!Native_tel} definitions the capture's spans use.

    Counters: [ops], [migrations], [locks/acquired], [locks/handoffs],
    [threads/spawned], [threads/finished], [mem/events],
    [rebalance/periods], [rebalance/moves], [rebalance/demotions], and
    [decisions/*] per decision kind. Histograms: [op/latency] plus the
    [op/home_hit]/[op/remote]/[op/migrated] split (all request→end, in
    cycles) and the [op/queue]/[op/migrate]/[op/exec] breakdown;
    [monitor/idle_pct], [monitor/dram_loads], [monitor/l2_hits] sampled
    per core at each monitor period. Gauges: per-core [coreNN/idle_frac],
    [coreNN/dram_loads], [coreNN/l2_hits] for the most recent period. *)

type t

val attach : ?ring_capacity:int -> ?sample:int -> O2_runtime.Engine.t -> t
(** Subscribe a recorder to the engine's probe. [ring_capacity] bounds
    each sink's retained records (default 4096; 0 keeps no records —
    metrics only). [sample] keeps the span events of 1-in-N ops per
    requesting core (default 1 = all; 0 = none); moves outside ops,
    rebalances and decisions are always kept. The subscription lasts
    for the engine's lifetime.
    @raise Invalid_argument on a negative [ring_capacity] or [sample]. *)

val metrics : t -> Metrics.t
val machine : t -> O2_simcore.Machine.t

val capture : t -> O2_runtime.Telemetry.t
(** The recorded events, in virtual cycles. *)

val decision_name : int -> string
(** The name of a [Decision] record's kind code: ["promote"],
    ["replicate"], ["move"], ["demote"], ["displace"] or ["release"]. *)
