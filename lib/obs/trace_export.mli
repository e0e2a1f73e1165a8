(** The one Perfetto writer, for either backend's flight-recorder capture.

    {!to_string} / {!write_file} produce Chrome [trace_event] JSON (the
    object-with-[traceEvents] form), loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]. A {!view} says
    how to read a capture: its clock (virtual cycles at the simulated
    clock rate, or wall-clock ns), its track names, how to name an
    object, and an optional occupancy counter series. The layout:

    - one named track per sink ([pid] 0, [tid] = sink id): the simulated
      cores and the monitor, or the worker domains and the coordinator;
    - each reconstructed op span ({!Native_tel.span}) as a complete
      ([ph:"X"]) event on the track that executed it, with its
      {!Native_tel.op_class} and queue/migrate/exec breakdown (in the
      capture's unit) in [args];
    - each [Ship_out]/[Ship_in] pair as a flow arrow ([ph:"s"] on the
      source, [ph:"f"] on the destination), ops' ships and moves outside
      any op alike;
    - [Rebalance] records as global instants carrying moves/demotions,
      [Decision] records as thread-scoped instants
      ([decision/promote], [decision/move], ...) on the core the action
      landed on, steals and quiesces as instants, park..wake windows as
      [parked] spans, inbox batch sizes as a per-track counter series;
    - with an occupancy tracker, one counter track ([ph:"C"],
      [occ/<cache>]) per cache charting resident lines and distinct
      objects over time.

    Timestamps are microseconds, as the format expects: virtual cycles
    divided by the simulated clock rate, or [CLOCK_MONOTONIC] ns rebased
    to the capture's first event. [otherData] carries the capture's
    accounting (events retained/dropped, spans complete/incomplete) and
    [time_unit]/[clock] labels (["simulated cycles"]/["virtual"] or
    ["wall-clock ns"]/["CLOCK_MONOTONIC"]), so a trace can never be
    misread across the two time domains.

    {!ascii_timeline} renders the same spans as a per-track text timeline
    for terminals and docs. *)

type view

val of_recorder : ?occupancy:Occupancy.t -> Recorder.t -> view
(** A simulator capture: cycles at the machine's clock rate, tracks
    [core N] plus [monitor], objects named by the memory system, and
    the occupancy tracker's samples as counter tracks. *)

val of_native : O2_runtime.Telemetry.t -> view
(** A native capture: wall-clock ns, tracks [domain N] plus
    [coordinator], objects named [objN]. *)

val to_buffer : view -> Buffer.t -> unit
val to_string : view -> string
val write_file : view -> path:string -> unit

val ascii_timeline : ?width:int -> view -> string
(** One lane per track plus a monitor lane: [#] marks an executing
    operation span, [>]/[<] a ship or migration leaving/arriving, [R] a
    rebalance. [width] is the number of time columns (default 72). *)
