(** The native execution pool: one OCaml 5 domain per "core".

    Each worker domain owns a {!Deque} (its run queue, stolen from by
    idle peers) and an {!Inbox} (cross-domain delivery: client spawns
    from the coordinator, shipped operations from other workers). The
    worker loop drains the inbox, pops its own deque, then sweeps peers'
    deques as a thief, and when the whole pool looks quiet spins briefly
    on read-only checks before parking on its own condition variable —
    a per-worker [sleeping] flag, set before the final re-check and read
    by posters after their push, makes the park race-free against
    concurrent posts. Per-worker counters sit in padded slots, so the
    busy path writes no cache line another domain uses except the
    target inbox a ship hands over.

    Tasks run under an {!Effect.Deep} handler that interprets the
    shipping subset of {!O2_runtime.Api}: [Ship_to]/[Migrate_to] capture
    the client's continuation and post it to the target worker's inbox
    (this is the paper's operation shipping — the op descriptor crosses,
    the data stays), and [Yield] re-queues the continuation locally.
    Continuations are resumed on whichever domain receives them;
    {!current_domain} always names the executing worker because the
    handler consults domain-local state, never a captured id.

    The pool is the only [lib/native] module touching raw [Domain] /
    [Mutex] / [Condition]; it is allowlisted in o2staticcheck's
    raw-primitive rule the same way [Domain_pool] is. *)

type t

val create : ?telemetry:O2_runtime.Telemetry.t -> domains:int -> unit -> t
(** Spawn [domains] worker domains, idle until work arrives. The pool
    takes the count literally — oversubscribing the host is legal (the
    correctness tests do it), and then idle workers park without
    spinning first; CLI entry points clamp first via
    {!O2_runtime.Domain_pool.clamped}.

    [telemetry] (default {!O2_runtime.Telemetry.off}) attaches the
    wall-clock flight recorder: each worker stamps steal / park / wake /
    inbox-batch events and counters into its own single-writer sink,
    and spawns are stamped on the caller's sink. With the default the
    instrumented paths are a cached-bool branch — pinned
    allocation-free by suite_hotpath and the o2staticcheck manifest.
    @raise Invalid_argument if [domains < 1], or if [telemetry] was
    created for a different domain count. *)

val domains : t -> int

val current_domain : t -> int
(** The worker index executing the caller, or [-1] off-pool (the
    coordinator). Valid inside client bodies wherever they ran. *)

val spawn : t -> core:int -> name:string -> (unit -> unit) -> unit
(** Queue a client body on worker [core]'s inbox (it may later be stolen
    by an idle peer). Callable from the coordinator or from a worker.
    @raise Invalid_argument if [core] is out of range. *)

val quiescent : t -> bool
(** No spawned client is in flight (every one has finished). The
    backend's quiesce-point operations check it. A snapshot: a concurrent
    {!spawn} can falsify it at once, so only the coordinator, between
    {!drain} and its next spawn, may rely on it. *)

val drain : t -> unit
(** Block the coordinator until every spawned client has finished. If
    any client raised, the first exception recorded is re-raised here
    (after quiescence). Workers stay alive, parked, for the next batch. *)

val shutdown : t -> unit
(** Stop and join every worker. The pool must be quiescent ({!drain}
    returned). Idempotent. *)

val parked : t -> int
(** Workers currently advertising sleep — a racy snapshot for tests and
    diagnostics. *)

val tasks_executed : t -> int
(** Tasks run across all workers (client bodies plus resumed shipped /
    yielded continuations) — telemetry; stable only at quiescence. *)

val steals : t -> int
(** Successful deque steals across all workers; stable at quiescence. *)

val telemetry : t -> O2_runtime.Telemetry.t
(** The telemetry handed to {!create} ([Telemetry.off] if none). *)
