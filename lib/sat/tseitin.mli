(** Tseitin encoding of Boolean networks and miter construction.

    The one place a LUT becomes clauses. {!gate} emits the clauses of one
    gate from its ISOP covers (on-set and off-set); every SAT caller goes
    through it:
    - the incremental sweep session ([Simgen_sweep.Sat_session]) calls
      {!gate} directly, with its own emit (clause groups, live counts)
      and its own variables;
    - the fresh-solver miter ([Simgen_sweep.Miter.check_pair_fresh]) and
      the semantic lint ([Simgen_check.Sem_lint]) encode query cones with
      {!encode_cones}, build XOR miters with {!xor_var}, validate UNSAT
      answers with {!checked_proof} and read counterexamples with
      {!pi_values};
    - whole-network encodings ({!encode_network}, {!encode_shared_pis})
      serve ATPG and the CNF lint's [--tseitin] audit.

    So the CNF lint audits the encoder the sweeps run. *)

val gate :
  (Literal.t list -> unit) ->
  Simgen_network.Truth_table.t ->
  Literal.var ->
  (int -> Literal.var) ->
  unit
(** [gate emit f y fanin] passes to [emit] the clauses of
    [y <-> f(fanin 0, ..., fanin (k-1))]: one unit for a constant [f],
    else one clause per ISOP cube, in {!Simgen_network.Isop.rows} order.
    [fanin i] is called as the clauses name fanin [i] (literal order,
    cube by cube), so a caller may allocate fanin variables on first
    use. *)

type env
(** Encoding context: a solver, optionally with a log of the clauses
    handed to it. *)

val create : ?record:bool -> unit -> env
(** [record] (default [false]) keeps a copy of every emitted clause so
    {!clauses} can replay the encoding, and turns on the solver's DRUP
    proof logging before the first clause, so an UNSAT answer can be
    re-checked with {!checked_proof}. Off by default: the uncertified
    fresh-solver miter should not pay for a clause log. *)

val solver : env -> Solver.t

val add : env -> Literal.t list -> unit
(** Hand one clause to the solver (and to the log, when recording). *)

val clauses : env -> Literal.t list list
(** Clauses emitted so far, oldest first, exactly as handed to the solver
    (before solver-side normalization). Empty unless the env was created
    with [~record:true]. *)

val encode_network : env -> Simgen_network.Network.t -> Literal.var array
(** Encode all nodes; result maps node id to solver variable. Calling it
    twice on different networks shares nothing (use {!encode_shared_pis} to
    tie inputs together for CEC). *)

val encode_shared_pis :
  env ->
  Simgen_network.Network.t ->
  Simgen_network.Network.t ->
  Literal.var array * Literal.var array
(** Encode two networks over one shared set of PI variables (they must have
    the same number of PIs). *)

val encode_cones :
  ?resolve:(Simgen_network.Network.node_id -> Simgen_network.Network.node_id) ->
  env ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id list ->
  Literal.var array
(** Encode the fanin cones of [roots] only: the result maps node id to
    solver variable, [-1] outside the cones. [resolve] (identity by
    default) redirects every root and fanin to its representative first —
    a sweep's proven-equivalence substitution. Variables are allocated on
    first use (a gate's output, then its fanins as its clauses name
    them, then the remaining cone PIs), which fixes the solver's variable
    order and so its search. *)

val xor_var : env -> Literal.var -> Literal.var -> Literal.var
(** Fresh variable constrained to the XOR of two others. *)

val checked_proof :
  env -> (Literal.t list list * Solver.proof_event list) option
(** After an UNSAT answer on a recording env: trim the solver's proof
    against {!clauses} ({!Drup.trim}), then check the trimmed proof
    ({!Drup.check}). [Some (formula, proof)] when it is valid. *)

val pi_values :
  ?rng:Simgen_base.Rng.t ->
  Solver.t ->
  Simgen_network.Network.t ->
  Literal.var array ->
  bool array
(** After a [Sat] answer, read the PI assignment (by PI index) off the
    model through the node-to-variable map. PIs without a variable
    ([-1]: outside every encoded cone) take values from [rng] (a fixed
    seed by default), so the vector can be simulated network-wide. *)
