(** Ternary node-value assignments with a rollback trail.

    The [nodeVals] of Algorithm 1: a map from node ids to ternary output
    values, plus the assignment trail that (a) implements the
    checkpoint/rollback on conflict (Algorithm 1, lines 4 and 12) and
    (b) holds the order that [latestUpdated] queries (line 15) scan, which
    {!Engine.latest_candidate} does. *)

type t

val create : int -> t
(** [create num_nodes]: everything starts [Unknown]. *)

val value : t -> int -> Value.t
val is_assigned : t -> int -> bool
(** Test reference: the candidate-scan test rebuilds the engine's scan
    with it. *)

val values : t -> Value.t array
(** The live value of every node, indexed by node id, without copying:
    for readers on a hot path (the propagation engine). Writing to it
    desynchronises the trail; assign through {!assign}. *)

val trail : t -> int array
(** The nodes assigned so far, oldest first, in the first {!num_assigned}
    entries, without copying: for readers on a hot path (the propagation
    engine's candidate scan). The array has one slot per node and the
    entries past {!num_assigned} are stale. *)

val assign : t -> int -> bool -> unit
(** @raise Invalid_argument if the node is already assigned. *)

val checkpoint : t -> int
(** Trail mark to roll back to. *)

val rollback : t -> int -> unit
(** Unassign everything recorded after the mark. When
    {!Simgen_base.Runtime_check.enabled}, a mark outside the current trail
    raises {!Simgen_base.Runtime_check.Violation} instead of silently
    over- or under-rolling. *)

val num_assigned : t -> int

val to_array : t -> Value.t array
(** Snapshot of all values (copy). Test seam: the engine tests compare
    values before and after a step. *)

val audit : t -> unit
(** Invariant audit: the trail and the value map must agree (every trail
    entry assigned exactly once, nothing assigned off-trail). No-op unless
    {!Simgen_base.Runtime_check.enabled}; raises
    {!Simgen_base.Runtime_check.Violation} on failure. O(nodes + trail).
    Vector generation runs it after every class, once the assignment is
    rolled back. *)
