(** One record for every knob of the sweeping flow.

    {!Sweeper.sat_sweep}, the guided loops and {!Cec.check} used to grow
    optional arguments independently ([?should_stop], [?on_cex], [?seed],
    certify flags, …); this record collapses them so call sites name only
    what they change:

    {[
      let opts = { Sweep_options.default with seed = 7; certify = true } in
      let sw = Sweeper.create opts net in
      ...
    ]}

    This record is the only spelling: every sweeping entry point takes a
    [Sweep_options.t] (the PR-2 optional-argument wrappers are gone). *)

type t = {
  seed : int;  (** master seed for the sweeper's RNG *)
  strategy : Simgen_core.Strategy.t;  (** guided-generation strategy *)
  outgold : Simgen_core.Outgold.strategy;
      (** OUTgold assignment for guided rounds *)
  random_rounds : int;  (** 64-vector random batches before guiding *)
  guided_iterations : int;
  max_sat_calls : int option;  (** sweep call cap ([None] = unlimited) *)
  max_conflicts : int option;
      (** base per-query conflict budget ([None] = unlimited — queries
          never answer [Unknown] on their own). The first rung of the
          degradation ladder; see {!Sweeper.verify_pair}. *)
  escalations : int;
      (** how many times an [Unknown] query's budget is re-tried at 4x
          the previous budget before falling back to a fresh solver *)
  bdd_fallback_nodes : int;
      (** BDD node quota for the last ladder rung; past it the pair is
          quarantined *)
  one_distance : bool;
      (** expand counter-examples to their 1-distance neighbourhood *)
  incremental : bool;
      (** route miters through the per-sweep {!Sat_session} (default);
          [false] restores a fresh solver per pair — the baseline the
          [bench sat-session] experiment measures against *)
  session_gc : bool;
      (** physically garbage-collect retired queries and stale gate
          encodings inside the session (default). [false] reproduces the
          append-only PR-2 clause database — verdicts and merge
          partitions are identical either way (the differential tests
          assert it), only speed and memory differ *)
  certify : bool;
      (** check a DRUP proof for every UNSAT verdict and record the
          whole-sweep certificate ({!Sweeper.certificate}). Composes
          with [incremental]: the session route logs per-query proof
          slices, so certification no longer forces the fresh-solver
          route *)
  solver_audit : bool;
      (** arm the sampled solver-state sanitizer
          ({!Simgen_sat.Solver.set_audit}, R007..R013) on every session
          solver the sweep creates. Observes only — verdicts and merge
          partitions are unchanged; a tripped invariant raises
          [Runtime_check.Violation] through the session recovery path.
          Also armed implicitly when [SIMGEN_CHECK] is on *)
  should_stop : unit -> bool;
      (** cooperative cancellation, polled between units of work *)
  on_cex : (bool array -> unit) option;
      (** observer for every counter-example found *)
  fun_cache : Fun_cache.t option;
      (** the cut-local check {!Sweeper.verify_pair} runs before any
          SAT query (see {!Fun_cache}); the serving layer sets it, the
          one-shot [cec] and [batch] flows leave it unset. [None] (the
          default) skips the check entirely *)
}

val default : t
(** The paper's §6.1 setup: seed 1, AI+DC+MFFC, alternating OUTgold, one
    random round, 20 guided iterations, incremental sessions, no
    certification, no cap, never stops; unlimited conflict budget with 3
    escalation steps and a 10k-node BDD fallback should a budget be
    set. *)
