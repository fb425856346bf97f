(** Simulation equivalence classes and the cost metric (paper §2.3, §6.1).

    Nodes whose outputs agree on every simulated vector so far share a
    class. Classes only ever split as more vectors arrive (refinement).
    The candidate set is the network's gates (LUTs) — the paper separates
    "LUTs from the same equivalence class".

    Refinement works in place: a class whose members all agree on the new
    values is kept as it is, only the members of a class that splits are
    re-indexed, and the class list is re-sorted only when one split. *)

type t

val create : Simgen_network.Network.t -> t
(** One initial class containing all gates (refine immediately with a first
    simulation round). PIs are excluded from classes. *)

val refine_word : t -> int64 array -> unit
(** Split classes using a fresh batch of node simulation words (as produced
    by {!Simulator.simulate_word}). *)

val classes : t -> Simgen_network.Network.node_id list list
(** Current classes of size >= 2, each sorted by node id, in ascending
    order of their smallest member. Singleton classes are dropped: they
    need no further separation. *)

val num_classes : t -> int
(** Number of classes of size >= 2. *)

val cost : t -> int
(** Equation (5): sum over classes of (size - 1) — the worst-case number of
    SAT calls left. *)

val class_of : t -> Simgen_network.Network.node_id -> Simgen_network.Network.node_id list
(** The class containing a node ([] if the node is a singleton/PI).
    Constant-time lookup: a per-node index kept up to date by each
    refinement. *)
