(** Incremental verification sessions: one persistent solver per sweep.

    A fresh-solver miter ({!Miter.check_pair_fresh}) pays for every query
    from scratch: the cone union is re-encoded and every learned clause is
    thrown away. A session amortises both across the thousands of queries
    a sweep makes against the same network:

    - {b Lazy, substitution-aware encoding.} Each node's CNF (its ISOP
      rows, from {!Simgen_sat.Tseitin.gate} like every encoder in the
      repository) is emitted at most once, the first
      time a query's cone reaches it, over the variables of its
      {e substituted} fanins. When a later merge redirects a fanin to its
      representative, the node is re-encoded over the new variables and
      the stale clause group is physically retracted (see GC below).
    - {b Activation-literal miters.} Each pair query adds two guard
      clauses [(~act \/ va \/ vb)] and [(~act \/ ~va \/ ~vb)] — an
      XOR-difference miter live only under the fresh assumption [act],
      posed via [solve ~assumptions:[act]].
    - {b Retirement with physical GC.} After the verdict the unit [~act]
      is asserted at level 0 and the guard clauses are deleted outright
      (they are satisfied by the unit; the unit itself must stay — it is
      what makes learned clauses carrying the positive [act] literal
      sound). Learned clauses that mention [~act] become satisfied at the
      root and are garbage-collected by the solver's own [simplify]
      passes, which also rebuild — compact — the watch lists, so BCP
      stops paying for dead queries. A proven pair additionally ties its
      two variables together so either cone benefits from the other's
      clauses, and the losing node's definition group is retracted on
      the spot (the merge makes it unreachable, the tie keeps learned
      clauses over its variable sound; a pair queried again without the
      merge re-encodes the loser).
    - {b Cone-focused search.} Every query runs under
      {!Simgen_sat.Solver.focus_decisions} on the variables of its two
      substituted cones: branching never leaves the cones, and
      propagation above the root does not assign out-of-focus variables.
      The cone encodings are conservative extensions, so a conflict-free
      total assignment of the focus already extends to a model — a query
      against the accumulated network costs what a fresh cone-union
      solver would pay (DESIGN.md §13 has the soundness argument; [bench
      sat-session] gates the ratio).
    - {b Clause-growth rebuild.} When the solver database nonetheless
      outgrows the live encoding three times over (learned clauses and
      stale variable space no per-clause GC can reclaim), the session
      discards the solver and re-encodes lazily from the current
      substitution. A certifying session records the discontinuity as a
      {!Simgen_check.Certificate.Rebuild} marker.

    The session is deterministic for a fixed query order and [rng], and it
    must see every substitution update: share the sweeper's [subst] array
    (as {!Sweeper} does) rather than a copy. *)

type verdict = Equal | Counterexample of bool array | Unknown

type t

val create :
  ?certify:bool ->
  ?audit:bool ->
  ?subst:int array ->
  ?rng:Simgen_base.Rng.t ->
  Simgen_network.Network.t ->
  t
(** A session over [net] with an empty solver. [subst] is the live
    proven-equivalence substitution — the session reads it before every
    query and path-compresses it ({!resolve}); a sweep passes its own,
    and the default is a fresh identity array.
    [rng] randomizes the PIs outside the encoded
    cones in counterexamples. [certify] (default [false]) turns on DRUP
    logging and per-query certificate recording: every problem clause
    and proof event is sliced per query into
    {!Simgen_check.Certificate.query} records, collected with
    {!take_cert_queries}. [audit] (default
    [false]) arms the sampled solver-state sanitizer
    ({!Simgen_sat.Solver.set_audit}, R007..R013) on the session's solver
    — and on every solver a rebuild creates; it is also armed implicitly
    whenever {!Simgen_base.Runtime_check.enabled} holds, so the full
    test suite sweeps under the sanitizer. *)

val resolve :
  int array -> Simgen_network.Network.node_id -> Simgen_network.Network.node_id
(** [resolve subst id] follows the substitution from [id] to its
    representative, path-compressing [subst] on the way. Compression only
    points a node at a lower root, so the substitution stays monotone and
    the partition it describes does not move. The sweep's one
    substitution resolver: the session, the fresh-solver {!Miter},
    {!Sweeper.representative} and the cut-local check all resolve through
    it. *)

val take_cert_queries : t -> Simgen_check.Certificate.query list
(** Certificate records of the queries since the last take, oldest
    first; the internal buffer is cleared. The guard clauses, the
    retirement unit and the tie clauses are deliberately absent from the
    records — the independent checker reconstructs them from
    [act]/[va]/[vb], which is what makes the certificate meaningful. *)

val check_pair :
  ?max_conflicts:int ->
  t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  verdict
(** One equivalence query, posed as an activation-guarded miter against
    the persistent solver. [Equal] means UNSAT under the activation
    assumption (the pair may be merged by the caller — the session picks
    the change up from [subst] on the next query); [Counterexample]
    carries a full PI vector on which the nodes differ. [max_conflicts]
    budgets the underlying {!Simgen_sat.Solver.solve_limited} call:
    past it the query answers [Unknown] — the miter is still retired,
    nothing is merged, and the caller climbs the degradation ladder
    ({!Sweeper.verify_pair}). Unbudgeted queries never answer
    [Unknown]. *)

val rebuild : t -> unit
(** Drop the solver and start over on the same shared substitution: the
    next queries re-encode only the cones they touch, over the current
    representatives. Proof logging and the audit are re-armed as at
    {!create}, and a certifying session records a
    {!Simgen_check.Certificate.Rebuild} marker after the queries still
    untaken, so the checker resets its clause database at the same
    point. {!check_pair} calls it when the clause database outgrows the
    live encoding; {!Sweeper.verify_pair} calls it to recover from a
    [Runtime_check.Violation] mid-query. Counters, {!stats} and
    {!solver_stats} alike, carry over. *)

val solve_targets :
  t ->
  (Simgen_network.Network.node_id * bool) list ->
  bool array option
(** SAT-based vector generation through the same session: constrain every
    target node to its OUTgold value (as plain assumptions — no activation
    literal needed, assumptions are free) and return a model vector, or
    [None] if the combination is unsatisfiable. Backs {!Sat_vectors}. *)

type stats = {
  queries : int;  (** {!check_pair} queries that reached the solver *)
  proved : int;
  disproved : int;
  unknown : int;  (** budgeted queries that ran out of conflicts *)
  vector_calls : int;  (** {!solve_targets} calls *)
  encoded : int;
      (** encodes of a node with no live variable: a node's first
          encode, and also a retracted loser asked again and every node
          encoded anew after a clause-growth rebuild *)
  reencoded : int;  (** re-encodings after a fanin representative moved *)
  retired : int;  (** miters killed by asserting the negated activation *)
  live_clauses : int;  (** gauge: live problem clauses in the solver *)
  live_learnts : int;  (** gauge: live learnt clauses in the solver *)
  retired_clauses : int;
      (** clauses physically deleted by session GC: guard clauses at
          retirement plus stale gate encodings at re-encode *)
  rebuilds : int;
      (** solver rebuilds of either kind: clause growth, and recovery
          from a [Runtime_check.Violation] ({!rebuild}) *)
}

val stats : t -> stats

val audit : t -> unit
(** The full solver-state audit ({!Simgen_sat.Solver.audit}, watch lists
    included) of the session's current solver. Call between queries. *)

val solver_stats : t -> Simgen_sat.Solver.stats
(** Counters of the underlying solver; snapshot around a query for its
    conflict/propagation deltas (the runner telemetry does). Counters
    accumulate across clause-growth rebuilds (the discarded solvers'
    counts are folded in), so deltas stay monotone; the gauge fields
    reflect the live solver only. *)
