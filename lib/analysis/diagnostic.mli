(** Structured diagnostics reported by the o2check analysis passes.

    Every checker — the lockset race detector, the lock-order graph, the
    O2 invariant checker — reports violations as values of this one type, so
    the CLI, the test suite and future CI tooling can filter, dedupe and
    render them uniformly. *)

type severity = Error | Warning

type t = {
  checker : string;  (** Which pass produced it: ["lockset"], ["lock-order"]
                         or ["invariant"]. *)
  code : string;  (** Stable short code, e.g. ["race"], ["deadlock-cycle"],
                      ["open-op"], ["capacity"], ["obj-magic"]. *)
  severity : severity;
  message : string;  (** Human-readable, self-contained description. *)
  time : int option;  (** Virtual time, for dynamic diagnostics. *)
  cores : int list;  (** Cores involved (e.g. the two racing cores). *)
  threads : int list;  (** Thread ids involved. *)
  addr : int option;  (** Simulated address, when one identifies the site. *)
  subject : string option;
      (** The object, lock or file the diagnostic is about. *)
}

val make :
  checker:string ->
  code:string ->
  ?severity:severity ->
  ?time:int ->
  ?cores:int list ->
  ?threads:int list ->
  ?addr:int ->
  ?subject:string ->
  string ->
  t
(** [make ~checker ~code msg]; [severity] defaults to [Error]. *)

val is_error : t -> bool

val key : t -> string
(** Deduplication key: checker, code, subject and addr (not the message,
    whose times and counters vary between otherwise-identical reports). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
