(** The cut-local check: the rung {!Sweeper.verify_pair} tries before
    any SAT query.

    For one candidate pair it grows a small cut shared by both nodes (at
    most 8 cut nodes, at most 48 gate expansions), composes both cone
    functions over it as truth tables, and compares them. Nothing is
    stored between consults, so a consult's answer depends only on the
    live network and the sweeper's substitution:

    - {b Equal} when the two tables are pointwise equal: agreement over
      the free cut variables implies agreement over every input
      assignment.
    - {b Counterexample} when they differ over an {e exact} cut (one whose
      nodes are all PIs): the first differing minterm, extended to a full
      PI vector.
    - {b Unknown} otherwise (the tables differ over a cut with internal
      nodes, where the difference may be unreachable): SAT decides.

    The answer is a {!Sat_session.verdict}, the one pair answer every
    ladder rung gives.

    The module keeps its historical name because the serving layer and
    its benchmark still construct it as [Fun_cache.create ()]. The
    counters are atomics, so one value may be shared across runner
    Domains. *)

type t

val create : unit -> t

val consult :
  t ->
  ?serve_equal:bool ->
  rng:Simgen_base.Rng.t ->
  subst:int array ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  Sat_session.verdict
(** Check one candidate pair (resolved through [subst] like every
    miter). [serve_equal:false] (used under certification, where every
    merge must cite a DRUP proof) turns a locally proven [Equal] into
    [Unknown], so the SAT route still runs and records a proof;
    counterexamples are still served, since a disproof carries no
    certificate obligation. [rng] fills the PIs outside an exact cut when
    building a counterexample. *)

type stats = {
  consults : int;
  hits : int;  (** consults answered without SAT *)
  misses : int;  (** consults SAT had to decide: the cut was inexact *)
  local_proofs : int;
      (** pairs proven equal over the shared cut, served or withheld;
          a withheld proof ([serve_equal:false]) is neither a hit nor a
          miss *)
  local_cexes : int;  (** counterexamples from exact-cut minterms *)
}

val stats : t -> stats
