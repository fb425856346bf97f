(** Light structural rewriting of AIGs.

    Used to derive functionally equivalent but structurally different
    variants of a circuit — the "optimized copy" side of a CEC problem —
    and to shake redundancy into generated benchmarks. The rewrite is
    local and a verified equivalence. *)

val shuffle_rebuild : Simgen_base.Rng.t -> Aig.t -> Aig.t
(** Rebuilds while randomly re-associating chains of conjunctions, yielding
    an equivalent AIG with different structure (useful as the second CEC
    input). *)
