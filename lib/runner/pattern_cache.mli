(** Cross-job distinguishing-pattern cache.

    Counter-examples found while sweeping one job are {e real}
    distinguishing patterns; on stacked or otherwise related benchmarks
    (same PI count) they tend to split the next job's equivalence classes
    too. The cache keys vectors by PI count; compatible jobs replay the
    cached vectors as their first simulation words, before any guided
    generation, so related instances start with pre-split classes.

    All operations are mutex-protected: one cache is shared by every
    worker domain of a pool run. Vectors are copied on both {!add} and
    {!borrow}, and every entry carries a checksum taken at insertion:
    {!borrow} re-verifies it and silently drops corrupted entries (a
    dropped pattern only costs a class split it would have bought — the
    sweep stays correct), counting them in {!dropped}. *)

type t

val create : unit -> t
(** Keep at most 64 vectors (one simulation word) per PI count, evicting
    the oldest. *)

val add : t -> bool array -> bool
(** Store a vector under its PI count. Returns [false] (and stores
    nothing) if an identical vector is already cached. *)

val borrow : t -> npis:int -> bool array list
(** All cached vectors for the PI count, newest first (at most the
    per-key capacity). Counts as one hit if non-empty, one miss if
    empty. *)

val hits : t -> int
val misses : t -> int

val size : t -> int
(** Vectors currently stored across all keys. *)

val dropped : t -> int
(** Entries discarded by {!borrow} because their checksum no longer
    matched their contents. *)
