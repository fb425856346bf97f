(** Redundancy injection: make generated circuits carry the two kinds of
    candidate equivalences SAT sweeping meets in practice.

    - {b True equivalences}: a PO cone rebuilt with different association
      is functionally identical to the original; after LUT mapping the two
      copies are distinct LUT structures the solver must prove equal
      (UNSAT, merge).
    - {b Near-miss pairs}: a copy XOR-ed with a {e rare cube} (the AND of
      10 input literals) agrees with the original on all but a [2^-10]
      fraction of the input space. Random simulation almost
      never separates such a pair — the paper's motivating scenario — while
      guided pattern generation can activate the cube deliberately, and
      otherwise the SAT solver must disprove it (SAT, counter-example).

    Both copies stay alive behind a selector input, so the mapped network
    retains them as separate LUTs. *)

val inject :
  ?exact_fraction:float ->
  Simgen_base.Rng.t ->
  Simgen_aig.Aig.t ->
  Simgen_aig.Aig.t
(** Every PO gets a re-associated duplicate; a [1 - exact_fraction]
    share of them (default 0.5) additionally gets a rare-cube XOR,
    turning the pair into a near-miss. A rare cube conjoins 10 PI
    literals and 3 internal signals, so activating it takes multi-level
    justification. On top of the PO pairs, [max 10 (ands/6)] sampled
    internal nodes get a near-miss partner behind fresh POs. One
    selector PI is added; it picks the original copy when true and the
    (possibly near-miss) variant when false. *)
