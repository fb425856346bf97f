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

type guided_stats = {
  iterations : int;  (** guided iterations executed *)
  vectors : int;  (** useful vectors simulated *)
  skipped : int;  (** classes skipped (no useful vector) *)
  gen_conflicts : int;  (** per-target conflicts inside the generator *)
  implications : int;
  decisions : int;
  gen_sat_calls : int;
      (** solver calls spent {e generating} vectors — zero for SimGen and
          reverse simulation, one per class for the SAT-vector baseline *)
  guided_time : float;  (** wall time spent generating + simulating *)
}
(** Guided-phase statistics, re-exported as {!Sweeper.guided_stats}. *)

type sat_stats = {
  calls : int;
  proved : int;  (** UNSAT answers: merged pairs *)
  disproved : int;  (** SAT answers: counter-examples applied *)
  conflicts : int;  (** solver conflicts attributed to sweeping calls *)
  propagations : int;  (** solver propagations attributed to sweeping calls *)
  watch_visits : int;  (** watchers those propagations visited *)
  clause_reads : int;
      (** of those visits, the ones that had to read the clause *)
  restarts : int;  (** solver restarts attributed to sweeping calls *)
  deleted : int;
      (** clauses physically deleted during sweeping calls: learnt-clause
          reductions plus problem-clause retractions (session GC) *)
  sat_time : float;  (** wall time inside the solver path *)
}
(** SAT-sweep statistics, re-exported as {!Sweeper.sat_stats}. *)

(** What the flow reports to {!t.observe}, as it happens. *)
type observation =
  | Random_round of int  (** random round [n] (1-based) was simulated *)
  | Guided_round of { round : int; delta : guided_stats }
      (** guided round [round] (1-based) ran; [delta] is its own stats *)
  | Sat_sweep of sat_stats  (** the SAT sweep finished (or stopped) *)
  | Counterexample of bool array
      (** a counter-example was found, in the sweep or the PO phase *)

type t = {
  seed : int;  (** master seed for the sweeper's RNG *)
  strategy : Simgen_core.Strategy.t;  (** guided-generation strategy *)
  outgold : Simgen_core.Outgold.strategy;
      (** OUTgold assignment for guided rounds *)
  random_rounds : int;  (** 64-vector random batches before guiding *)
  guided_iterations : int;
  max_sat_calls : int option;
      (** SAT queries of the whole flow, the sweep's and the PO phase's
          together ([None] = unlimited): the sweep stops at the cap and
          {!Cec.run} poses no PO query once it is spent *)
  max_conflicts : int option;
      (** base per-query conflict budget ([None] = unlimited — queries
          never answer [Unknown] on their own). The first rung of the
          degradation ladder; see {!Sweeper.verify_pair}. *)
  one_distance : bool;
      (** expand counter-examples to their 1-distance neighbourhood *)
  incremental : bool;
      (** route miters through the per-sweep {!Sat_session} (default);
          [false] restores a fresh solver per pair — the baseline the
          [bench sat-session] experiment measures against *)
  certify : bool;
      (** check a DRUP proof for every UNSAT verdict and record the
          whole-sweep certificate ({!Sweeper.certificate}). Composes
          with [incremental]: the session route logs per-query proof
          slices, so certification no longer forces the fresh-solver
          route. Read once, by {!Sweeper.create}: the options later
          passed to {!Sweeper.sat_sweep} or {!Sweeper.verify_pair} do
          not turn it on or off *)
  solver_audit : bool;
      (** arm the sampled solver-state sanitizer
          ({!Simgen_sat.Solver.set_audit}, R007..R013) on every session
          solver the sweep creates. Observes only — verdicts and merge
          partitions are unchanged; a tripped invariant raises
          [Runtime_check.Violation] through the session recovery path.
          Also armed implicitly when [SIMGEN_CHECK] is on *)
  should_stop : unit -> bool;
      (** cooperative cancellation, polled between units of work *)
  observe : observation -> unit;
      (** the flow's observer: called for every {!observation} *)
  fun_cache : Fun_cache.t option;
      (** the cut-local check {!Sweeper.verify_pair} runs before any
          SAT query (see {!Fun_cache}); the serving layer sets it, the
          one-shot [cec] and [batch] flows leave it unset. [None] (the
          default) skips the check entirely *)
}

val default : t
(** The paper's §6.1 setup: seed 1, AI+DC+MFFC, alternating OUTgold, one
    random round, 20 guided iterations, incremental sessions, no
    certification, no cap, never stops, observes nothing; unlimited
    conflict budget. *)
