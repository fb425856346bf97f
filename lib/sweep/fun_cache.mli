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
    - {b Miss} otherwise (the tables differ over a cut with internal
      nodes, where the difference may be unreachable): SAT decides.

    The module keeps its historical name because the serving layer and
    its benchmark still construct it as [Fun_cache.create ()]. The
    counters are atomics, so one value may be shared across runner
    Domains. *)

type t

val create : unit -> t

type outcome =
  | Equal  (** proven locally: both cones equal over the shared cut *)
  | Counterexample of bool array  (** a full-PI distinguishing vector *)
  | Miss  (** no sound local answer; run SAT *)

val consult :
  t ->
  ?serve_equal:bool ->
  rng:Simgen_base.Rng.t ->
  subst:int array ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  outcome
(** Check one candidate pair (resolved through [subst] like every
    miter). [serve_equal:false] (used under certification, where every
    merge must cite a DRUP proof) turns a locally proven [Equal] into a
    [Miss], so the SAT route still runs and records a proof;
    counterexamples are still served, since a disproof carries no
    certificate obligation. [rng] fills the PIs outside an exact cut when
    building a counterexample. *)

type stats = {
  consults : int;
  hits : int;  (** consults answered without SAT *)
  misses : int;
  local_proofs : int;  (** Equal answers proven over the shared cut *)
  local_cexes : int;  (** counterexamples from exact-cut minterms *)
}

val stats : t -> stats
