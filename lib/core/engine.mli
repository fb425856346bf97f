(** The propagation engine: implication to fixpoint over a network.

    Wraps a network, a row cache and a ternary {!Assignment}. Assigning a
    value seeds a worklist; {!propagate} drains it, examining each touched
    gate against the matching rows of its function and applying simple or
    advanced implication (paper §4) until a fixpoint or a conflict. Rows
    are matched as bit sets (see {!Rows}), so an examination is a few
    word operations per fanin and allocates nothing. A table of at most
    63 rows — nearly every K <= 6 function — is examined by a one-word
    kernel that keeps the matching rows in a register; wider tables take
    a multi-word kernel with the same results. The engine reads each
    node's fanins once, at {!create}: the network must not change while
    the engine is in use. Propagation is confined to the scope of the
    last {!set_scope_cones}; an engine starts with an empty scope, so a
    value assigned before the first {!set_scope_cones} schedules
    nothing. In [Backward_only] mode a gate is examined only when its
    own output value arrives — the reverse-simulation baseline of §1.1. *)

type t

type outcome = Fixpoint | Conflict_at of Simgen_network.Network.node_id

val create :
  ?config:Config.t -> Simgen_network.Network.t -> t

val network : t -> Simgen_network.Network.t
val assignment : t -> Assignment.t
val config : t -> Config.t
val rows_of : t -> Simgen_network.Network.node_id -> Simgen_network.Cube.t array
(** Rows of a gate's function (cached per function). *)

val matching_rows :
  t -> Simgen_network.Network.node_id -> int array -> int
(** [matching_rows t g rows] writes the indices into {!rows_of}[ t g] of
    the gate's rows compatible with the current values of its fanins and
    output into [rows], ascending, and returns how many there are. [rows]
    must have a slot for every row of the gate. Allocates nothing. *)

val set_scope_cones : t -> Simgen_network.Network.node_id list -> unit
(** Restrict propagation to the union of the roots' fanin cones (during
    Algorithm 1, the cones of the class's targets), replacing the earlier
    scope (empty at {!create}). Values already assigned outside the scope
    are still read during row matching — only gate (re)examination is
    confined. Marking is one scan in descending id order from the
    highest root over the cached fanin arrays: it stamps the scope in an
    array the engine owns and links each scope node's in-scope fanouts
    into a chain, the only fanouts a new value at the node schedules.
    Costs O(highest root id + scope edges) and allocates nothing: the
    chain cells are sized at {!create} to the network's fanin edges. *)

val in_scope : t -> Simgen_network.Network.node_id -> bool
(** Whether gates at the node are (re)examined: it lies in the scope of
    the last {!set_scope_cones}. Test seam: the scope tests compare the
    marks with {!Simgen_network.Cone}. *)

val scope_chain :
  t -> Simgen_network.Network.node_id -> Simgen_network.Network.node_id list
(** The fanouts a new value at the node schedules: its in-scope fanouts
    in {!Simgen_network.Network.fanouts} order, a gate with a duplicated
    fanin listed twice; empty outside the scope. Test seam: the scope
    tests compare the chains with the network's fanout lists. *)

val mark_cone : t -> Simgen_network.Network.node_id -> unit
(** Mark the fanin cone of one node (Algorithm 1's [listDfs] of the
    current target), replacing the previous mark, by a depth-first walk
    over the cached fanin arrays that stamps each node as it is pushed.
    Independent of the scope. *)

val in_cone : t -> Simgen_network.Network.node_id -> bool
(** Whether the node lies in the cone of the last {!mark_cone}; [false]
    everywhere before the first. Test seam: as {!in_scope}. *)

val clear_exhausted : t -> unit
(** Empty the exhausted set: the decision candidates on which a decision
    made no progress (Algorithm 1's per-target loop). Takes a fresh epoch
    of a stamp array the engine owns and allocates nothing. *)

val set_exhausted : t -> Simgen_network.Network.node_id -> unit

val latest_candidate : t -> since:int -> Simgen_network.Network.node_id
(** Algorithm 1's [latestUpdated]: the most recently assigned node, among
    the trail entries from checkpoint [since] on, that lies in the cone
    of the last {!mark_cone}, is not exhausted and has an unassigned
    fanin (so is no PI), or [-1] when there is none. Reads the trail in
    place and allocates nothing. *)

val set : t -> Simgen_network.Network.node_id -> bool -> unit
(** Assign a node value and schedule the affected gates. The engine must be
    followed by {!propagate} before the next query. Assigning a node that
    already holds the opposite value records a pending conflict returned by
    the next {!propagate}. Re-assigning the same value is a no-op. *)

val propagate : t -> outcome
(** Run implications to fixpoint. On [Conflict_at g] the caller is expected
    to roll the assignment back to a checkpoint; the engine's worklist is
    cleared. *)

val checkpoint : t -> int
val rollback : t -> int -> unit

val num_implications : t -> int
(** Total values assigned by implication since creation. *)

