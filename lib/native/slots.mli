(** Per-domain counter slots padded against false sharing.

    Counters that each domain writes on every task or operation must not
    share a cache line with another domain's: a plain increment on a
    shared line moves the line between cores on every write. OCaml 5.1
    has no contended atomics or aligned allocation, so this module pads
    explicitly — one flat [int array] with {!stride} words (128 bytes)
    between domains. Each domain writes only its own slots; readers sum
    them at quiescence. *)

type t

val stride : int
(** Words between two domains' slots; also the tail padding callers
    add to their own per-domain rows. Slot indices must be below it. *)

val create : domains:int -> t
(** All slots zero. *)

val incr : t -> d:int -> int -> unit
(** [incr t ~d k] bumps slot [k] of domain [d]; only [d] may call it. *)

val get : t -> d:int -> int -> int
val set : t -> d:int -> int -> int -> unit

val sum : t -> domains:int -> int -> int
(** Slot [k] summed over domains [0 .. domains - 1]; exact only at
    quiescence. *)
