(** Node-pair miters: one SAT query per candidate equivalence.

    Encodes only the union of the two nodes' fanin cones (with optional
    substitution of already-proven equivalences, which is what makes
    sweeping progressively cheaper) and asks the solver for an input
    assignment on which the nodes differ.

    Two entry points:
    - {!check_pair} — the default for one-shot callers. A thin wrapper
      over a single-query {!Sat_session}; identical verdicts to the
      session-based sweeping path. For {e many} queries against one
      network, create a {!Sat_session} directly (or use
      {!Sweeper.sat_sweep}) so learned clauses survive between them.
    - {!check_pair_fresh} — the fresh-solver reference implementation:
      one solver per query, nothing shared, the cones encoded by
      {!Simgen_sat.Tseitin.encode_cones}. It is the differential baseline
      (tests, [bench sat-session]), the sweep's [incremental = false]
      route, and the ladder's fresh rung; optionally budgeted and
      certified, it returns the solver's counters for the query. *)

type verdict = Sat_session.verdict =
  | Equal  (** UNSAT: the nodes are functionally equivalent *)
  | Counterexample of bool array
      (** SAT: a complete PI vector (by PI index) distinguishing them *)
  | Unknown
      (** a conflict budget ran out first; only budgeted queries produce
          this *)

val check_pair :
  ?subst:int array ->
  ?rng:Simgen_base.Rng.t ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  verdict
(** [check_pair net a b]. [subst.(n)] redirects node [n] to its proven
    representative (identity by default); path compression is applied.
    PIs outside the encoded cones take random values (from [rng]) in the
    counterexample so it can be simulated network-wide. *)

type fresh = {
  verdict : verdict;
  valid : bool;
      (** the answer checked out: a [Counterexample] distinguishes the
          pair in simulation; under [certify], an [Equal] carries a DRUP
          proof that {!Simgen_sat.Drup.check} accepts *)
  stats : Simgen_sat.Solver.stats;  (** the query's solver counters *)
  cert : Simgen_check.Certificate.query option;
      (** under [certify], for a validated [Equal]: the trimmed
          standalone proof as a {!Simgen_check.Certificate.Fresh} record,
          which a certifying sweep appends to its certificate *)
}

val check_pair_fresh :
  ?subst:int array ->
  ?rng:Simgen_base.Rng.t ->
  ?max_conflicts:int ->
  ?certify:bool ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  fresh
(** Like {!check_pair} but on a dedicated fresh solver. [max_conflicts]
    budgets the solve (past it the verdict is [Unknown]: the ladder's
    fresh rung retries a pair that a session may have poisoned with its
    own clause database). [certify] (default [false]) records the clause
    stream and the DRUP proof so an [Equal] is independently checked;
    certified sweeping costs roughly the solver time again. *)
