(** Semantic lints: findings {e proved} by the CDCL solver or the BDD
    engine, not pattern-matched (codes [S001]..[S008]).

    Where {!Net_lint} checks structure (shapes that are wrong by
    inspection), this tier decides semantic properties of the logic
    itself. Candidates are harvested cheaply by word-parallel random
    simulation — a node whose signature is ever non-constant cannot be
    constant, two nodes with different signatures cannot be equivalent —
    and every surviving candidate is settled by an UNSAT proof:

    - [S001] gate provably constant over the reachable input space
      (its local function is not constant; the cone forces it),
    - [S002] semantically redundant fanin: the gate's positive and
      negative cofactors on that input coincide under the care set of
      reachable fanin-value combinations,
    - [S003] gate provably equivalent to an existing node (warning) and
      [S004] to its complement (info),
    - [S005] two POs provably equal (warning) and [S006] provably
      complementary (info),
    - [S007] dead logic: flipping the gate is unobservable at every PO
      (the gate lies entirely inside its observability don't-cares),
    - [S008] (info) a query exceeded its conflict budget and both
      engines passed — reported as {e unknown}, never as a finding, and
      never affecting {!Diagnostic.exit_code}.

    Every [S001]..[S007] diagnostic carries its witness in the message:
    the size of the independently re-checked DRUP proof
    ({!Simgen_sat.Drup.check} over the recorded query), or the BDD
    comparison that settled it when the solver's budget ran out first.
    Candidates the proof attempt {e refutes} (the solver finds a
    distinguishing assignment) are silently dropped — the lint never
    reports a property it could not prove, so false positives require a
    false UNSAT answer to survive the DRUP check. *)

val run :
  ?seed:int ->
  ?budget:int ->
  ?bdd_nodes:int ->
  Simgen_network.Network.t ->
  Diagnostic.t list
(** [run net] returns the semantic diagnostics, in discovery order
    (callers sort via {!Diagnostic.sort}). [seed] (default 1) drives the
    simulation prefilter; [budget] (default 2000) is the per-query
    conflict cap — no single SAT call may exceed it; [bdd_nodes]
    (default 50_000) bounds the fallback BDD manager (past it, unknowns
    stay unknown). Four batches of 64 random vectors harvest the
    candidates. Test seam: no command sets [bdd_nodes]; it is the only
    way a test can make the BDD fallback overflow. *)
