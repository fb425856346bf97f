(** Cut-based K-LUT technology mapping — the in-repo equivalent of ABC's
    ["if -K 6"] used to prepare every benchmark in the paper (§6.1).

    Priority-cut enumeration (Mishchenko et al.): each AIG node keeps the
    best few K-feasible cuts ranked depth-first with area-flow as
    tie-break; the cover is extracted backward from the POs and each chosen
    cut becomes one LUT whose truth table is computed from its cone.

    Enumeration visits the AND nodes once in topological order. A node's
    merged candidates are sorted, and the filter keeps each one that no
    already kept cut dominates until 8 are kept. A node's cut list is
    released once its last AND fanout has been enumerated; only the
    chosen cut of each node lives to the cover. The result is a pure
    function of the AIG: [test/golden/mapping.txt] pins it for every
    suite circuit at K = 4 and 6. *)

type stats = {
  luts : int;
  depth : int;
  edges : int;  (** total LUT fanin count *)
}

val map : ?k:int -> Simgen_aig.Aig.t -> Simgen_network.Network.t
(** [map ~k aig] returns a LUT network with [max_fanin_arity <= k]
    (default [k = 6], 8 priority cuts per node) that is functionally
    equivalent to the AIG. *)

val map_with_stats : ?k:int -> Simgen_aig.Aig.t -> Simgen_network.Network.t * stats
