(** The native backend: the O2 object/operation model on real domains.

    Implements {!O2_runtime.Backend_intf.S} over a {!Native_pool}. Every
    registered object has a {e home domain} and a declared mutability.
    An operation on a mutable object submitted anywhere else is shipped
    — [Api.ship_to] captures the client's continuation and posts it to
    the home's inbox — so mutable state is only ever touched by its home
    domain's worker. That single-writer discipline is the backend's
    whole data-race story: no per-object locks, and ops on one object
    execute in inbox FIFO order. An operation on a read-only object runs
    where it is submitted: there is no write to order, and the
    submitting domain reads it from its own cache.

    The monitor is a quiesce-point rebalancer: {!rebalance} may only run
    between {!run} batches (inflight = 0), when no client is executing,
    so re-homing never races an op in flight and per-object op order is
    preserved across the move. It re-homes each mutable object to its
    dominant submitting domain since the last call and then spills load
    that ships off overloaded homes — the wall-clock analogue of the
    simulator's periodic {!Coretime.Rebalancer}. *)

type t

val create : ?telemetry:O2_runtime.Telemetry.t -> domains:int -> unit -> t
(** Spawns the worker pool (see {!Native_pool.create} — the count is
    taken literally; clamp at the CLI with
    {!O2_runtime.Domain_pool.clamped}). Freshly registered objects are
    homed round-robin across domains until the monitor moves them.

    [telemetry] (default {!O2_runtime.Telemetry.off}) additionally
    instruments the op path: every [with_op] stamps submit / ship /
    start / end span events (1-in-[sample]) and feeds the wall-clock
    latency accumulators, carrying its timestamps in locals across the
    ship so submit-to-end covers the whole handoff. {!rebalance} and
    {!run} stamp rebalance / quiesce instants on the coordinator
    sink. *)

val shutdown : t -> unit
(** Join the pool. Required before discarding the backend; idempotent. *)

val rebalance : t -> unit
(** One monitor step at a quiesce point. Re-homes mutable objects to
    their dominant submitter, spills overloaded homes to the least loaded
    domain, snapshots the submit counters for the next period, and emits
    [Probe.Rebalanced] when the probe is active.
    @raise Invalid_argument unless {!Native_pool.quiescent} holds — some
    client is still in flight, for instance between {!spawn} and {!run},
    or the caller is itself a pool worker. *)

val pool : t -> Native_pool.t
val home : t -> int -> int
(** The object's current home domain. *)

val telemetry : t -> O2_runtime.Telemetry.t
(** The telemetry handed to {!create} ([Telemetry.off] if none). *)

(** The {!O2_runtime.Backend_intf.S} surface. *)

val name : t -> string
val cores : t -> int
val probe : t -> O2_runtime.Probe.t
val register : ?read_only:bool -> t -> size:int -> name:string -> int
(** [read_only] (default [false]) objects run where they are submitted;
    mutable ones always ship to their home. Same quiesce-point rule as
    {!rebalance}: growing the counter rows or writing a home while a
    worker reads them would lose counts or misroute ships.
    @raise Invalid_argument if [size <= 0] or a client is in flight. *)

val objects : t -> int
val spawn : t -> core:int -> name:string -> (unit -> unit) -> unit
val with_op : t -> ?write:bool -> int -> (unit -> 'a) -> 'a
(** @raise Invalid_argument with [~write:true] on a read-only object,
    off-pool, or on an unknown handle. *)

val touch : t -> write:bool -> obj:int -> off:int -> len:int -> unit
val compute : t -> int -> unit
val run : t -> unit
val ops_completed : t -> int
val object_ops : t -> int -> int
val ships : t -> int * int
val migrations : t -> int
