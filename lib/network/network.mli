(** Boolean networks: DAGs of single-output logic nodes (paper §2.1).

    A network is a mutable table of nodes indexed by dense integer ids.
    Nodes are primary inputs or gates; a gate carries a {!Truth_table.t}
    over its fanins. Primary outputs designate existing nodes. Gates must be
    added in topological order (fanins before fanouts), which every
    construction path in this repository guarantees. *)

type node_id = int

type kind =
  | Pi of int  (** primary input with its PI index *)
  | Gate of Truth_table.t  (** logic node; arity = [Array.length fanins] *)

type t

val create : ?name:string -> unit -> t

val name : t -> string
val set_name : t -> string -> unit

val add_pi : ?name:string -> t -> node_id
val add_const : t -> bool -> node_id
(** A zero-input gate with a constant function. *)

val add_gate : ?name:string -> t -> Truth_table.t -> node_id array -> node_id
(** [add_gate t f fanins] requires [Truth_table.nvars f = Array.length fanins]
    and every fanin id already present. *)

val add_po : ?name:string -> t -> node_id -> unit

val num_nodes : t -> int
(** Total nodes (PIs + gates). Ids are [0 .. num_nodes - 1]. *)

val num_pis : t -> int
val num_pos : t -> int
val num_gates : t -> int

val kind : t -> node_id -> kind
val fanins : t -> node_id -> node_id array
val func : t -> node_id -> Truth_table.t
(** @raise Invalid_argument on a PI. *)

val is_pi : t -> node_id -> bool
val pis : t -> node_id array
val pos : t -> node_id array
val po_name : t -> int -> string option
val node_name : t -> node_id -> string option

val fanouts : t -> node_id -> node_id list
(** Gate ids that use the node as a fanin (computed lazily, cached, and
    invalidated on mutation). *)

val iter_nodes : t -> (node_id -> unit) -> unit
(** All nodes in id (= topological) order. *)

val iter_gates : t -> (node_id -> unit) -> unit

val eval : t -> bool array -> bool array
(** [eval t pi_values] simulates one input vector scalar-ly and returns the
    value of every node, indexed by id. Mostly for tests; the word-parallel
    simulator lives in [simgen_sim]. *)

val eval_pos : t -> bool array -> bool array
(** PO values only, in PO order. *)

val levels : t -> int array
(** Longest-path level of every node, indexed by id (PIs and constants at
    0). Computed on demand, cached, and invalidated by every mutator — the
    same policy as {!fanouts}. Callers must not mutate the returned array:
    it is shared with the cache (take a copy, or use
    {!Level.compute}, to own one). *)

val cached_levels : t -> int array option
(** The current level cache without forcing a computation. [None] after
    any mutation since the last {!levels} call. The [simgen_check] staleness
    lint compares this against a fresh recomputation. *)

val max_fanin_arity : t -> int
(** Test reference: the mapper tests bound LUT arity by it. *)

val copy : t -> t
(** An independent copy. Test seam: the CEC and sweep tests check a
    network against its copy. *)

val pp_stats : Format.formatter -> t -> unit

(** Unchecked mutators, for mutation testing and experimental rewrites.

    These skip the topological-order and arity validation that [add_gate]
    enforces, so they can produce networks violating the IR invariants —
    exactly what the [simgen_check] linter exists to detect. Production
    code must not call them. *)
module Unsafe : sig
  val set_fanins : t -> node_id -> node_id array -> unit
  (** Replace a node's fanin array without any validation (the arity may
      disagree with the function, ids may be out of range or forward,
      creating combinational cycles). Invalidates the fanout and level
      caches like every honest mutator. Test seam: the network lint tests
      corrupt networks with it. *)

  val set_level_cache : t -> int array -> unit
  (** Install a level cache verbatim, bypassing recomputation — the
      corruption vector for the stale-level lint (N010).
      Test seam: as {!set_fanins}. *)
end
