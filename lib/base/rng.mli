(** Deterministic pseudo-random number generator.

    A splittable splitmix64 generator. Every randomized component of the
    library takes an explicit [Rng.t] so that experiments are exactly
    reproducible from a seed; nothing in the library uses the global
    [Stdlib.Random] state. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. Test seam: the
    decision reference test in [test_core] compares generator states
    through it. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val of_string : string -> t
(** Generator seeded from a string (FNV-1a hash); used to derive
    per-benchmark seeds from benchmark names. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
