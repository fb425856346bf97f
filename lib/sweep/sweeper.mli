(** The SAT-sweeping workflow of the paper's Figure 2.

    A sweeper owns a LUT network and its equivalence classes and advances
    them through three phases:

    - {b random simulation}: batches of 64 random vectors refine the
      classes ({!random_round});
    - {b guided simulation}: per iteration, the equivalence classes are
      handed to the pattern generator (SimGen or reverse simulation),
      largest first; up to 64 useful vectors are simulated together and
      refine the classes ({!guided_round});
    - {b SAT sweeping}: remaining candidate pairs go to the solver; UNSAT
      merges the pair (substitution shrinks later miters), SAT yields a
      counter-example vector that is fed back into simulation
      ({!sat_sweep}).

    All phases keep per-phase statistics; the evaluation section's tables
    and figures are read directly off these counters. *)

type t

type guided_stats = Sweep_options.guided_stats = {
  iterations : int;
  vectors : int;
  skipped : int;
  gen_conflicts : int;
  implications : int;
  decisions : int;
  gen_sat_calls : int;
  guided_time : float;
}

type sat_stats = Sweep_options.sat_stats = {
  calls : int;
  proved : int;
  disproved : int;
  conflicts : int;
  propagations : int;
  watch_visits : int;
  clause_reads : int;
  restarts : int;
  deleted : int;
  sat_time : float;
}
(** The phase statistics, documented at {!Sweep_options.guided_stats} and
    {!Sweep_options.sat_stats}. *)

val empty_guided : guided_stats
val empty_sat : sat_stats
(** All-zero stats (e.g. for jobs that failed before sweeping). *)

type degrade_stats = {
  unknowns : int;  (** SAT rungs that ran out of their conflict budget *)
  escalations : int;  (** budget-escalation retries (4x per step) *)
  fresh_fallbacks : int;
      (** queries retried on a fresh solver after the session gave up *)
  bdd_fallbacks : int;  (** queries retried on the BDD backend *)
  session_rebuilds : int;
      (** session solvers rebuilt from the substitution after a
          [Runtime_check.Violation] *)
  quarantined : (int * int) list;
      (** representative pairs every rung gave up on, newest first — never
          merged, excluded from further candidate picking *)
}
(** What the degradation ladder ({!verify_pair}) had to do. All zero /
    empty on a fault-free, unbudgeted run. *)

val empty_degrade : degrade_stats

val create : Sweep_options.t -> Simgen_network.Network.t -> t
(** A fresh sweeper with one initial class holding all gates and no
    simulation history, configured by the options record: [seed] feeds
    the RNG, [outgold] picks the OUTgold generation strategy for guided
    rounds, [certify] records a whole-sweep certificate (the session
    logs per-query clausal proofs, every merge is logged with a
    reference to the query that proved it, and {!certificate} assembles
    the result for {!Simgen_check.Certificate.check}). When
    {!Simgen_base.Runtime_check.enabled} holds at creation (the
    [SIMGEN_CHECK] environment variable), the sweeper audits invariants
    at every refinement and merge boundary: eq-class partition
    well-formedness and substitution monotonicity
    ({!Simgen_check.Audit}); and every {!sat_sweep} ends with the full
    solver-state audit of its session ({!Sat_session.audit}). Audits raise
    {!Simgen_base.Runtime_check.Violation} on corruption. *)

val session : t -> Sat_session.t
(** The sweeper's incremental verification session. It shares the
    sweeper's substitution array and RNG, so miters posed through it (the
    CEC PO phase does this) see — and their merges extend — the proven
    equivalences of the sweep. A [Runtime_check.Violation] inside a
    {!verify_pair} query rebuilds its solver ({!Sat_session.rebuild});
    the handle stays the same. *)

val fun_cache_stats : t -> Fun_cache.stats
(** The counters of this sweeper's cut-local check, the first rung of
    {!verify_pair}: sweep and PO phases alike, this sweeper only. *)

val network : t -> Simgen_network.Network.t
(** Test seam: the certificate tests read the swept network back. *)

val classes : t -> Simgen_sim.Eq_classes.t
(** Test seam: tests inspect the candidate classes. *)

val cost : t -> int
(** Equation (5) over the current classes. *)

val random_round : t -> unit
(** Simulate one batch of 64 random vectors and refine. *)

val apply_vector : t -> bool array -> unit
(** Simulate one specific vector (e.g. a counter-example) and refine. *)

val apply_vectors : t -> bool array list -> unit
(** Simulate a list of vectors packed into 64-lane words ([n] vectors cost
    [ceil (n/64)] word-parallel passes) and refine once per chunk. Used to
    replay patterns cached from earlier related runs. *)

val guided_round :
  t -> Simgen_core.Strategy.t -> guided_stats
(** One guided iteration: walk the classes from the largest down, handing
    each to the pattern generator, until 64 useful vectors fill a
    simulation word or the classes run out; simulate them and refine. Returns this round's own
    statistics; they are also added to the sweeper's running total
    ({!guided_stats}). *)

val run_guided : Sweep_options.t -> t -> guided_stats
(** [guided_iterations] rounds of {!guided_round} with strategy and stop
    predicate taken from the options record; returns cumulative stats.
    Each round's own stats go to [observe] as a [Guided_round].
    [should_stop] is polled before every round (cooperative
    budget/cancellation check): when it returns [true] the remaining
    rounds are abandoned and the stats accumulated so far are
    returned. *)

val guided_round_config : t -> Simgen_core.Config.t -> guided_stats
(** Like {!guided_round} with an explicit configuration instead of a named
    strategy — the entry point for ablation studies over the raw knobs
    (alpha/beta of Eq. 4, implication and direction switches). Returns the
    round's own statistics, as {!guided_round} does. *)

val run_sat_guided : Sweep_options.t -> t -> guided_stats
(** [guided_iterations] rounds of the SAT-based vector-generation
    baseline (paper §2.3, Lee et al. / Amarù et al.): the batches of
    {!guided_round}, but one solver call per visited class instead of
    reverse propagation. Exact but SAT-dependent — the comparison point
    that motivates SimGen. The stop predicate comes from the options
    record; same early-stop and reporting contract as {!run_guided}. *)

val guided_stats : t -> guided_stats
val cost_history : t -> int list
(** Cost recorded after every refinement event (random, guided or
    counter-example), oldest first. *)

val sat_sweep : Sweep_options.t -> t -> sat_stats
(** Prove or disprove every remaining candidate pair. Counter-examples are
    fed back into the simulator (Figure 2's feedback arrow) — expanded to
    their 1-distance neighbourhood when [one_distance] is set; proven
    pairs are merged via substitution. Stops early after [max_sat_calls]
    solver calls (the sweep's own; {!Cec.run} counts its PO queries
    against the rest), or as soon as [should_stop] (polled before each call)
    returns [true] — either way the stats cover the partial sweep.
    [observe] sees every counter-example found (e.g. to seed a shared
    pattern cache) and, at the end, the sweep's stats. Candidate pairs come off a worklist of classes, so a
    class is only revisited after a merge or a split changes it.

    Queries route through the sweeper's {!Sat_session} by default
    ([incremental = true]); [incremental = false] restores a fresh solver
    per pair. A sweeper created with [certify] validates a DRUP proof
    for every UNSAT answer (raising [Failure] if one fails to check) — on
    the session route the proofs are recorded per query and the whole
    sweep is additionally checkable after the fact via {!certificate}. The returned stats
    include the solver conflict/propagation/restart/deletion deltas
    attributable to this sweep. Verdicts — and therefore the final merge
    partition — are identical across all routes. *)

val sat_stats : t -> sat_stats

val verify_pair :
  Sweep_options.t ->
  t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  Sat_session.verdict * Simgen_sat.Solver.stats
(** One candidate query through the degradation ladder. The pair is
    resolved to representatives first, then walks a fixed list of rungs,
    each answering a {!Sat_session.verdict}, until one answers other
    than [Unknown]:
    - the cut-local check ({!Fun_cache.consult}), counted in
      {!fun_cache_stats};
    - a session query at [max_conflicts], then the same query at 4x the
      previous budget, three times (the session keeps its learned
      clauses, so each retry resumes paid-for work);
    - a fresh solver at the next budget ({!Miter.check_pair_fresh});
    - {!Bdd_backend.check_pair} under its node quota.

    Past the last rung the pair is quarantined — recorded in
    {!degrade_stats}, excluded from future candidate picking — and the
    verdict is [Unknown]. Nothing is ever merged on [Unknown].
    [incremental = false] skips the session: the fresh solver is the
    first SAT rung, at [max_conflicts]. On a sweeper created with [certify] (the
    options passed here do not change it) the fresh rung certifies too
    (its proof joins the certificate), the cut check's [Equal] is proven
    again by the pair's window miter (its cut nodes free, no conflict
    budget; the proof joins the certificate), and the BDD rung is
    dropped — a BDD verdict carries no clausal proof.
    A [Runtime_check.Violation] mid-query rebuilds the session's
    solver over the (consistent) substitution and retries once; a second Violation propagates. Returns the verdict and
    the solver-counter deltas across every rung tried. With
    [max_conflicts = None] (the default) budgets are unlimited and the
    ladder is only ever climbed under injected faults. *)

val degrade_stats : t -> degrade_stats
(** Ladder telemetry accumulated so far (sweep and PO phases alike). *)

val representative : t -> Simgen_network.Network.node_id -> Simgen_network.Network.node_id
(** Current proven-equivalence representative of a node (itself if none). *)

val merge : t -> Simgen_network.Network.node_id -> Simgen_network.Network.node_id -> unit
(** Record a {e proven} merge: resolve both nodes to representatives,
    redirect the larger id to the smaller, and — under certification —
    log the merge citing the proof of the immediately preceding
    [Equal] verdict from {!verify_pair}. All merge sites (the sweep
    itself, the CEC PO phase) must go through this so the certificate's
    merge log is complete; writing {!substitution} directly leaves an
    unlogged merge the checker will reject. *)

val certificate : t -> Simgen_check.Certificate.t
(** Assemble the whole-sweep certificate recorded so far: every proof
    query in order (session slices, fresh one-shot proofs, session
    rebuild markers) plus the merge log. Validate it with
    {!Simgen_check.Certificate.check}. Meaningful only for a sweeper
    created with [~certify:true] (otherwise queries and merges are
    empty). *)

val substitution : t -> int array
(** The live proven-equivalence substitution array ([subst.(n)] points
    towards [n]'s representative). Shared with the sweeper — callers may
    pass it to {!Miter.check_pair_fresh} so follow-up miters (e.g. the CEC PO
    phase) reuse and extend the proven merges; do not write anything that
    is not a proven equivalence. Test seam: the certificate tests pass it
    to fresh miters, and the audit tests corrupt it. *)

val max_class_failures : int
(** Consecutive generation failures after which a class is skipped.
    Test seam: the give-up tests count rounds against it. *)

val gen_failure_counts : t -> (int * int) list
(** Per-class generation-failure counters as [(class key, failures)]
    pairs sorted by key, where the key is the class's smallest member.
    A class is skipped by guided rounds once its count reaches
    {!max_class_failures}; a split changes the key of every part that
    loses the smallest member, giving those parts a fresh counter.
    Test seam: [guided_stats.skipped] counts failed and given-up classes
    alike, so only these counters show the give-up rule. *)
