(** SAT-based simulation vector generation — the related-work baseline of
    Lee et al. and Amarù et al. (paper §2.3): ask the SAT solver directly
    for an input vector that realizes the OUTgold split.

    Exact — it finds a splitting vector whenever one exists — but every
    vector costs a SAT call, which is precisely the dependence SimGen is
    designed to remove. The benchmark harness contrasts the two.

    All generation runs through a caller-owned {!Sat_session}, so cone
    encodings and learned clauses are shared across calls — the
    sweeper's SAT-guided loop does this. For a one-off call, pass
    [Sat_session.create net]. *)

val generate_pairwise_in :
  Sat_session.t ->
  (Simgen_network.Network.node_id * bool) list ->
  bool array option
(** [generate_pairwise_in session outgold] first constrains every target
    to its OUTgold value over the union of the targets' fanin cones
    ({!Sat_session.solve_targets}). If that is unsatisfiable it falls
    back to the paper's usefulness criterion: some pair of targets with
    opposite OUTgold values must be realized, tried one pair at a time.
    [Some vector] from the first satisfiable model (cone-external PIs
    randomized), [None] if no pair is realizable. *)
