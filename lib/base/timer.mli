(** Wall-clock timing helpers used by the sweeper and the bench harness. *)

val now : unit -> float
(** Monotonic-ish wall clock in seconds ([Unix.gettimeofday] equivalent via
    [Sys.time] is CPU time; we use [Unix] when available — here we rely on
    [Unix.gettimeofday] through the [unix] library). *)
