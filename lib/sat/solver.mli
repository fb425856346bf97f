(** A CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal propagation
    over blocker-literal watcher arrays (MiniSat 2.2; Chu, Harwood and
    Stuckey 2009): a watcher whose blocker is true is passed over without
    reading its clause. First-UIP
    conflict analysis with recursive clause minimisation, EVSIDS
    branching, phase saving, Luby restarts and LBD-tiered learned-clause
    deletion (Audemard–Simon). This is the verification engine behind SAT
    sweeping (paper §2.2, §6.3): each equivalence query becomes one [solve]
    call whose count and runtime the benchmarks report.

    The clause database is managed for long-lived incremental use: learned
    clauses carry their literal block distance and are reduced on a
    conflict schedule that survives [solve]-call boundaries, problem
    clauses can be registered under a group id and physically retracted
    with {!remove_group}, and {!simplify} garbage-collects clauses
    satisfied at level 0 while compacting every watch list. The Luby
    restart sequence likewise continues across calls, so assumption-heavy
    sessions (many short queries on one instance) restart like one long
    search would. *)

type t

type result = Sat | Unsat

val create : unit -> t

val new_var : t -> Literal.var
(** Fresh variable; variables are numbered consecutively from 0. *)

val num_vars : t -> int

val add_clause : ?group:int -> t -> Literal.t list -> unit
(** Add a problem clause. Adding the empty clause (or two conflicting unit
    clauses) makes the instance trivially unsatisfiable. Clauses may only
    be added at decision level 0, i.e. between [solve] calls.

    [?group] registers the stored clause under a client-chosen id so the
    whole group can later be retracted with {!remove_group}. Clauses that
    are not stored — units, tautologies, clauses already satisfied at
    level 0 — are never registered: a unit in particular is irreversible,
    so retractable constraints must be guarded behind an activation
    literal (making them at least binary) in the usual incremental-SAT
    style. *)

val remove_group : t -> int -> int
(** [remove_group s g] physically deletes every clause registered under
    group [g]: the clauses are detached from the watch lists immediately
    and dropped from the clause database at the next compaction. Returns
    the number of clauses removed (0 for an unknown group). Only at
    decision level 0.

    Root-level implications derived from a removed clause stay on the
    trail; removal is only sound when the retracted clauses are
    consequences of (or guarded against) the remaining theory — the
    session discipline of activation literals and conservative-extension
    gate encodings guarantees exactly that. The deletions are not
    recorded as {!Delete} events: a proof checker that keeps a deleted
    clause can only get stronger, so the omission is always sound. *)

val simplify : t -> unit
(** Garbage-collect the clause database at decision level 0: remove every
    clause satisfied by the root-level assignment (recording {!Delete}
    proof events for learnt clauses), drop clauses retracted by
    {!remove_group} from the clause lists, and rebuild — compact — all
    watch lists. Called automatically at [solve] entry on a
    propagation-volume schedule. Test seam: the sanitizer tests call it
    for a deterministic compaction point. Here and in {!remove_group}, a
    removed clause that is the reason of a root unit first records that
    unit as a {!Learn} event, so the proof keeps deriving the units the
    trail keeps. *)

val focus_decisions : t -> Literal.var list -> unit
(** Restrict the search to the given variables for subsequent solves
    (the previous focus, if any, is replaced). Assumptions are still
    decided as usual; branching never picks a variable outside the
    focus, and above the root, propagation does not assign one either —
    a clause that becomes unit on an out-of-focus literal freezes for
    the rest of the call (its implied variable can then never be
    assigned within the call, so the clause can never be falsified and
    no conflict is missed). Root-level implications always propagate.
    Above the root, then, an out-of-focus variable is assigned only as an
    assumption.

    A [Sat] answer under focus means the focused variables have a total
    assignment that propagates to a fixpoint without conflict; variables
    the search never reached are left unassigned ({!value} then reports
    their saved phase). This equals full satisfiability exactly when
    every out-of-focus variable is extendable — constrained only by
    clauses that some completion of the focus assignment always
    satisfies, e.g. gate encodings whose fanin cone lies inside the
    focus. That contract is the caller's to uphold; the sweep session's
    conservative-extension cone encodings are the intended client
    (DESIGN.md §13 spells out the argument). [Unsat] answers are exact
    regardless: conflicts only ever involve genuinely falsified
    clauses. *)

val solve : ?assumptions:Literal.t list -> t -> result
(** Decide satisfiability under optional assumptions. The solver is
    reusable: further clauses may be added and [solve] called again —
    including after an [Unsat] answer under assumptions, which leaves the
    instance itself intact (the incremental-session pattern: guard a
    temporary constraint behind an activation literal, solve with the
    literal assumed, then retire it with a unit clause). *)

(** Per-call search budgets for {!solve_limited}, consolidated in one
    record. [unlimited] bounds nothing; [conflicts n] builds a
    conflict-only budget. *)
module Limits : sig
  type t = { conflicts : int option; propagations : int option }

  val unlimited : t
  val conflicts : int -> t
end

type limited_result = LSat | LUnsat | LUnknown

val solve_limited :
  ?assumptions:Literal.t list -> ?limits:Limits.t -> t -> limited_result
(** [solve] with per-call budgets. When the search exceeds
    [limits.conflicts] conflicts or [limits.propagations] propagations
    (counted for this call only) it backtracks to level 0 and answers
    [LUnknown]; the instance stays intact, all clauses learned so far
    are kept, and a later call — with a larger budget or none — resumes
    the work already paid for. A non-positive budget answers [LUnknown]
    immediately. The default [Limits.unlimited] never answers [LUnknown].
    The degradation ladder in [Sweeper] is built on this call. *)

val failed_assumptions : t -> Literal.t list
(** After [solve ~assumptions] returned [Unsat]: the subset of the
    assumptions the refutation actually used (MiniSat's final conflict,
    un-negated), in no particular order. Empty when the instance is
    unsatisfiable regardless of the assumptions — callers use this to tell
    a dead query (its activation literal failed) from a dead instance.
    Reset by the next [solve] call. *)

val value : t -> Literal.var -> bool
(** Model value after a [Sat] answer. Unconstrained variables report their
    saved phase. *)

(** {2 DRUP proof logging} *)

type proof_event =
  | Learn of Literal.t array  (** clause added by conflict analysis *)
  | Delete of Literal.t array
      (** clause physically removed from the database: learnt-clause
          reduction ({!simplify} / LBD-tiered reduce); a retraction by
          {!remove_group} records none *)

val enable_proof : t -> unit
(** Start recording a DRUP proof (call before adding clauses or solving).
    Every learned clause is a reverse-unit-propagation consequence of the
    formula so far; an UNSAT answer ends with the empty clause. Verify
    with {!Drup.check}. *)

val proof_events : t -> proof_event list
(** Recorded events, oldest first ([] when logging is off). *)

val proof_event_count : t -> int
(** Number of events recorded so far. O(1); use with
    {!proof_events_from} to slice a session's proof stream per query. *)

val proof_events_from : t -> int -> proof_event list
(** [proof_events_from s i] returns the events with oldest-first index
    [>= i], oldest first. Costs O(count - i): remembering the count
    before a query and slicing after it yields that query's certificate
    without copying the whole log. *)

(** {2 Statistics} *)

val num_clauses : t -> int
(** Live (stored, not removed) problem clauses. *)

val num_learnts : t -> int
(** Live learnt clauses. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  watch_visits : int;
      (** watchers visited by propagation, one per (clause, false watched
          literal) pair looked at *)
  clause_reads : int;
      (** visits that had to open the clause: the rest were settled on
          the watcher's blocker literal alone *)
  restarts : int;
  learned : int;  (** learnt clauses ever created *)
  deleted : int;  (** learnt clauses deleted (reduction + simplify) *)
  removed : int;  (** problem clauses retracted or simplified away *)
  reductions : int;  (** LBD-tiered [reduce_db] passes *)
  compactions : int;  (** watch-list rebuilds ([simplify] passes) *)
  live_clauses : int;  (** gauge: current live problem clauses *)
  live_learnts : int;  (** gauge: current live learnt clauses *)
  lbd_core : int;  (** gauge: live learnts with LBD <= 2 (kept forever) *)
  lbd_mid : int;  (** gauge: live learnts with 2 < LBD <= 6 *)
  lbd_local : int;  (** gauge: live learnts with LBD > 6 (first to go) *)
}
(** Lifetime counters plus clause-database gauges in one immutable
    snapshot. The first eleven fields are monotone counters — subtracting
    two snapshots prices a single [solve] call, which is how the sweeping
    telemetry reports per-call deltas. The [live_*] / [lbd_*] fields are
    instantaneous gauges; differencing them is meaningless. *)

val stats : t -> stats
(** Snapshot the counters; subtracting two snapshots prices a single
    [solve] call, which is how the sweeping telemetry reports per-call
    conflict/propagation deltas. *)

val zero_stats : stats
(** All counters and gauges zero: the unit of {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** [add_stats a b] sums the eleven counters; the gauges are [b]'s, the
    later snapshot (summing gauges of different solvers means nothing). *)

val diff_stats : stats -> stats -> stats
(** [diff_stats later earlier] differences the eleven counters — the cost
    of the work between the two snapshots; the gauges are [later]'s. *)

(** {2 Solver-state sanitizer}

    Invariant audits over the live solver state, reported as
    {!Simgen_base.Runtime_check.Violation} with stable [R]-codes:

    - [R007] — watch integrity: every live clause with two or more
      literals is watched on the negations of its first two literals and
      on nothing else; every watcher's blocker is a literal of its
      clause; at a root fixpoint a watched literal false at the root has
      a true blocker.
    - [R008] — reason/trail consistency: every implication's reason
      clause has the implied literal first, every other literal false,
      and has not been detached.
    - [R009] — decision-heap consistency: [heap]/[heap_pos] form a
      bijection and the max-heap property holds; re-checked after
      {!focus_decisions} when sampling is armed.
    - [R010] — fence soundness: during a focused call no out-of-focus
      variable is implied above the root (decisions and assumptions are
      exempt: they are the caller's).
    - [R011] — no detached clause lingers on a watch list after
      {!remove_group} / clause-database reduction / {!simplify}.
    - [R012] — the eleven monotone {!stats} counters never regress.
    - [R013] — the live-clause gauges agree with the clause database.

    [audit] runs everything on demand (O(database)); [set_audit] arms a
    cheap sampled subset — R008/R009/R010/R012, O(trail + heap) — that
    runs every [every]-th conflict inside {!solve_limited}, at the one
    point mid-search where the invariants are all supposed to hold. A
    disarmed solver pays one integer compare per conflict. *)

val audit : t -> unit
(** Full invariant audit; raises [Runtime_check.Violation] on the first
    broken invariant. Call at decision level 0. *)

val set_audit : t -> every:int -> unit
(** Arm ([every > 0]) or disarm ([every <= 0]) the sampled audit. *)

val audit_sampling : t -> bool
(** Whether the sampled audit is armed. Test seam: the sanitizer tests
    check that {!set_audit} arms and disarms it. *)

(** Deliberate state corruptions for exercising the sanitizer — the
    seeded-corruption matrix in the test suite. Each breaks exactly the
    invariant named by one R-code. Never use outside tests. *)
type corruption =
  | Drop_watch  (** unhook a clause from one watch list (R007) *)
  | Scramble_reason
      (** repoint a trail literal's reason at a clause that does not
          imply it (R008) *)
  | Break_heap  (** swap heap entries without fixing [heap_pos] (R009) *)
  | Break_fence  (** disable the focus propagation fence (R010) *)
  | Leak_detached  (** mark a clause removed but leave it watched (R011) *)
  | Regress_stats  (** decrement a monotone counter (R012) *)
  | Skew_gauge  (** bump a live-clause gauge (R013) *)
  | Foreign_blocker
      (** give a watcher a blocker that is not a literal of its clause
          (R007) *)

val corrupt : t -> corruption -> unit
(** Apply one corruption; raises [Invalid_argument] when the solver has
    no state to corrupt (e.g. no live clause). Test seam: the
    seeded-corruption matrix. *)
