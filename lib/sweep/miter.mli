(** Node-pair miters: one SAT query per candidate equivalence.

    Encodes only the union of the two nodes' fanin cones (with optional
    substitution of already-proven equivalences, which is what makes
    sweeping progressively cheaper) and asks the solver for an input
    assignment on which the nodes differ.

    {!check_pair_fresh} is the fresh-solver reference implementation:
    one solver per query, nothing shared, the cones encoded by
    {!Simgen_sat.Tseitin.encode_cones}. It is the differential baseline
    (tests, [bench sat-session]), the sweep's [incremental = false]
    route, and the ladder's fresh rung; optionally budgeted and
    certified, it returns the solver's counters for the query. For many
    queries against one network, use a {!Sat_session} (or
    {!Sweeper.sat_sweep}) so learned clauses survive between them. *)

type fresh = {
  verdict : Sat_session.verdict;
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
  subst:int array ->
  ?rng:Simgen_base.Rng.t ->
  ?max_conflicts:int ->
  ?certify:bool ->
  ?stop:(Simgen_network.Network.node_id -> bool) ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  fresh
(** [check_pair_fresh ~subst net a b] on a dedicated fresh solver.
    [subst.(n)] redirects node [n] to its proven representative (an
    identity array checks the nodes as they are). PIs outside the encoded cones take random values (from
    [rng]) in a counterexample so it can be simulated network-wide.
    [max_conflicts] budgets the solve (past it the verdict is [Unknown]:
    the ladder's fresh rung retries a pair that a session may have
    poisoned with its own clause database). [certify] (default [false]) records the clause
    stream and the DRUP proof so an [Equal] is independently checked;
    certified sweeping costs roughly the solver time again. [stop]
    (default: the PIs) ends the encoded cones at other nodes, which
    become free variables ({!Simgen_sat.Tseitin.encode_cones}): with a
    cut, the query is the pair's window miter, and UNSAT over free cut
    nodes proves the pair equal over every input. *)
