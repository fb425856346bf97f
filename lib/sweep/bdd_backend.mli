(** BDD-based verification backend.

    The classical alternative to SAT in sweeping flows (paper §2.2):
    build BDDs for the candidate nodes' cones and compare roots —
    equality is constant-time, counter-examples come from a satisfying
    path of the XOR. BDD size can blow up, so every entry point takes a
    node quota and gives no answer when it is hit. *)

val check_pair :
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  Sat_session.verdict
(** Compare two nodes of one network under a quota of 10,000 BDD nodes,
    the ladder's BDD rung. [Unknown] means the quota was hit: the rung
    then quarantines the pair. *)

val check_outputs :
  Simgen_network.Network.t ->
  Simgen_network.Network.t ->
  (int * bool array) option option
(** Full-output CEC under a quota of 500_000 nodes: [Some None] =
    equivalent, [Some (Some (po, cex))] = differ at [po], [None] = quota
    exceeded. Networks must agree on PI and PO counts. *)
