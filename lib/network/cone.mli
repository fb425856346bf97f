(** Fanin cones and transitive-fanin traversals (paper §2.1).

    The DFS node list of a target's fanin cone is the working set of
    SimGen's Algorithm 1 ([listDfs]). *)

val fanin_cone_many : Network.t -> Network.node_id list -> Network.node_id list
(** All nodes that can reach one of the targets through fanin edges,
    targets included, each listed once in DFS post-order (fanins before
    the nodes they feed). *)

val mark_fanin_cones :
  ?post:int Simgen_base.Vec.t ->
  Network.t ->
  stamp:int array ->
  epoch:int ->
  stack:int Simgen_base.Vec.t ->
  Network.node_id list ->
  unit
(** Allocation-free cone marking for callers that mark many cones over
    one network: sets [stamp.(id) <- epoch] on every node of the roots'
    fanin cones. A node already stamped [epoch] is treated as visited, so
    a fresh epoch per call marks exactly the union of the cones. [stack]
    is scratch space. When [post] is given, the newly marked nodes are
    appended to it in the order of {!fanin_cone_many}. *)

val member_mask : Network.t -> Network.node_id list -> bool array
(** Characteristic array over all node ids of a node list.
    Test reference: the engine-scope tests build the expected marks with
    it. *)
