(** Cut-based K-LUT technology mapping — the in-repo equivalent of ABC's
    ["if -K 6"] used to prepare every benchmark in the paper (§6.1).

    Priority-cut enumeration (Mishchenko et al.): each AIG node keeps the
    best few K-feasible cuts ranked depth-first with area-flow as
    tie-break; the cover is extracted backward from the POs and each chosen
    cut becomes one LUT whose truth table is computed from its cone. *)

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
