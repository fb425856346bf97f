(** The cut-local check: the first rung of every ladder
    {!Sweeper.verify_pair} walks.

    For one candidate pair it grows a small cut shared by both nodes (at
    most 8 cut nodes, at most 48 gate expansions), simulates the window
    above the cut exhaustively on the simulator's word kernel
    ({!Simgen_sim.Simulator.eval_lut}: cut node [i] takes the standard
    pattern of variable [i], so a node's table is at most 4 words), and
    compares the pair's words. Nothing is stored between consults, so a
    consult's answer depends only on the live network and the sweeper's
    substitution:

    - {b Equal} when the two tables are equal: agreement over the free
      cut nodes implies agreement over every input assignment. A
      certifying sweeper proves the pair again by its window miter
      ({!cut_node}).
    - {b Counterexample} when they differ over an {e exact} cut (one whose
      nodes are all PIs): the lowest differing minterm, extended to a full
      PI vector.
    - {b Unknown} otherwise (the tables differ over a cut with internal
      nodes, where the difference may be unreachable): SAT decides.

    The answer is a {!Sat_session.verdict}, the one pair answer every
    ladder rung gives, and it is the same in every mode.

    A value of [t] is a set of counters, one per answer. Every sweeper
    owns one
    ({!Sweeper.fun_cache_stats} reads it) and a {!scratch}, and the
    daemon keeps one [t] that sums its jobs' counts ({!add}). The module
    keeps its historical name because the serving benchmark still
    constructs it as [Fun_cache.create ()]. The counters are atomics, so
    one value may be shared across runner Domains. *)

type t

val create : unit -> t

type scratch
(** Working space of one consult at a time, sized once to the network's
    nodes: an epoch-stamped membership array for the cut and its
    interior, and up to 4 table words per node. Not shareable between
    domains. *)

val scratch : Simgen_network.Network.t -> scratch
(** Working space for consults on this network. *)

val consult :
  t ->
  scratch ->
  rng:Simgen_base.Rng.t ->
  subst:int array ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  Sat_session.verdict
(** Check one candidate pair (resolved through [subst] like every
    miter). [rng] fills the PIs outside an exact cut when building a
    counterexample. *)

val cut_node : scratch -> Simgen_network.Network.node_id -> bool
(** [cut_node s id]: whether [id] is a node of the cut the last consult
    through [s] grew. Every resolved fanin of the window's gates is a cut
    node or another window gate, so ending the pair's cones here
    ([Miter.check_pair_fresh ~stop]) encodes exactly the window. *)

type stats = {
  consults : int;  (** [hits + misses] *)
  hits : int;  (** consults answered without SAT: [local_proofs + local_cexes] *)
  misses : int;  (** consults SAT had to decide: the cut was inexact *)
  local_proofs : int;  (** pairs proven equal over the shared cut *)
  local_cexes : int;  (** counterexamples from exact-cut minterms *)
}

val stats : t -> stats

val add : t -> stats -> unit
(** Add a consult count, such as one job's, into the counters: its
    [misses], [local_proofs] and [local_cexes], which [consults] and
    [hits] sum. *)
