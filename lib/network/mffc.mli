(** Maximum Fanout-Free Cones (paper §2.1, used by the §5 decision
    heuristic).

    The MFFC of a node [n] is the largest subset of its fanin cone such that
    every path from a member node to a PO passes through [n]. Gates inside
    the MFFC feed only [n]'s logic, so value assignments there cannot
    conflict with propagations from other outputs. *)

val compute : Network.t -> Network.node_id -> Network.node_id list
(** Members of the MFFC rooted at the node (gates only, root included),
    fanins-first order. A PI argument yields the empty list. A node tapped
    as a primary output is never an interior member: the PO is an external
    observation of its value. *)

val depth : Network.t -> int array -> Network.node_id -> float
(** Equation (2): average over the MFFC's leaves — members with no fanin
    inside the MFFC — of [level(root) - level(leaf)], given precomputed
    levels. A PI (empty MFFC) has depth [0.]. Test seam: the MFFC cache
    test checks {!cached_depth} against it. *)

type cache

val cache : Network.t -> cache
(** Memoizes per-node MFFC depths against a fixed network/level snapshot.
    The cache owns its workspace (the PO-tap set and an epoch-stamped
    membership array), so computing a depth allocates no per-node
    array. *)

val cached_depth : cache -> Network.node_id -> float
