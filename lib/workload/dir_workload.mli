(** The paper's directory-lookup benchmark (Figures 1 and 3): threads — one
    per core — repeatedly look up a randomly chosen file in a randomly
    chosen directory of an in-memory FAT volume. Each directory is a
    CoreTime object; each lookup is an annotated, per-directory-locked
    operation.

    The active set is the first [active ()] directories, so an oscillating
    popularity phase (Figure 4(b)) just shrinks the prefix. *)

type spec = {
  dirs : int;
  entries_per_dir : int;  (** The paper uses 1000 (32 bytes each). *)
  cluster_bytes : int;
  compare_cycles : int;  (** Per-entry compare cost in the scan loop. *)
  think_cycles : int;  (** Non-memory work per iteration. *)
  dir_dist : [ `Uniform | `Zipf of float ];
  shuffle_popularity : bool;
      (** Decorrelate popularity rank from directory index (and hence
          from registration/packing order) with a seeded permutation. *)
  use_locks : bool;
      (** Bracket each lookup with the per-directory spin lock (the
          paper's setup). Read-only ablations can turn locks off. *)
  seed : int;
}

val default_spec : spec
(** 64 directories x 1000 entries, 4 KB clusters, uniform popularity. *)

val data_kb : spec -> int
(** Total directory-content size in KB — the x-axis of Figure 4. *)

val spec_for_data_kb :
  ?entries_per_dir:int -> ?seed:int -> kb:int -> unit -> spec
(** The spec whose directory count best approximates [kb] of directory
    content (at least 1 directory). *)

type t

val build : Coretime.t -> spec -> t
(** Format and populate the volume, register every directory as a CoreTime
    object (identified by its first cluster's address, sized by its
    cluster chain). Host-side: it costs no simulated time, but it does
    cost host time: linear in [dirs * entries_per_dir], plus one scan of
    the root directory per directory created. The file names
    are checked and encoded once into one {!O2_fs.Fat.listing}, and each
    directory is filled by copying it, one blit per 4 KB cluster. A 16 MB
    volume (512 directories of 1000 entries) builds in about 15-20 ms on
    a 2-core Xeon VM (OCaml 5.1.1). The largest and most variable part is
    formatting: the first touch of the fresh 19 MB image (page faults
    while it is allocated and zeroed). Creating the 512 directories costs
    about 4 ms and copying the listings about 3 ms. *)

val fs : t -> O2_fs.Fat.t
val spec : t -> spec
val directory : t -> int -> O2_fs.Fat.dir
val dir_object : t -> int -> Coretime.Object_table.obj

val rotate_popularity : t -> by:int -> unit
(** Shift the popularity-rank-to-directory mapping by [by] positions:
    yesterday's hot directories cool off and others heat up (popularity
    drift, for the replacement-policy experiments). *)

val active : t -> int
val set_active : t -> int -> unit
(** Restrict lookups to the first [n] directories (clamped to [1, dirs]).
    Takes effect on each thread's next iteration. *)

val spawn_threads : t -> unit
(** One looping lookup thread per core, as in Figure 1's [main]. *)

val spawn_thread : t -> core:int -> O2_runtime.Thread.t
(** A single worker (used by examples and tests). *)

val spawn_threads_placed : t -> int array -> unit
(** One worker per entry, placed on the given cores (a thread-placement
    scheduler's output). *)

val lookups_done : t -> int
(** Successful resolutions completed so far (sums per-core op counters). *)

val one_lookup : t -> Rng.t -> bool
(** Perform a single annotated lookup from inside an existing simulated
    thread; returns whether the name resolved (it always should). *)
