(** Plain-text rendering of a {!Metrics} registry — the [top]-style
    readout printed by [o2sim --metrics] and the examples.

    Three sections (each omitted when empty): latency histograms with
    count/mean/p50/p90/p99/p999/max columns, counters, and — unless
    [gauges:false] — the per-core gauges from the last monitor period.
    [units] labels the histogram section's header — ["cycles"] by
    default (simulator virtual time); the native backend passes
    ["wall-clock ns"] so a reader can never mistake one domain of time
    for the other. With [?capture] (either backend's flight-recorder
    capture), a footer accounts for its ring bounds: spans complete and
    incomplete, events retained and dropped ({!Native_tel.summary}).
    Output is deterministic: rows are sorted by metric name. *)

val render :
  ?units:string ->
  ?gauges:bool ->
  ?capture:O2_runtime.Telemetry.t ->
  Metrics.t ->
  string

val print :
  ?units:string ->
  ?gauges:bool ->
  ?capture:O2_runtime.Telemetry.t ->
  Metrics.t ->
  unit
