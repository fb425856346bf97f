(** Cuts for K-LUT technology mapping.

    A cut of an AIG node is a set of "leaf" nodes such that every path from
    a PI to the node passes through a leaf; a K-feasible cut has at most K
    leaves and can be implemented by one K-input LUT.

    Each cut carries a leaf signature: bit [id mod 62] is set for every
    leaf [id]. It decides most failed merges and most non-dominations
    without walking the leaves, and never changes an answer: a union whose
    signature has more than K bits has more than K leaves, and a cut with a
    signature bit that another lacks has a leaf that the other lacks. *)

type t = private {
  leaves : int array;  (** sorted AIG node ids *)
  sign : int;  (** leaf signature *)
  depth : int;  (** mapping depth if this cut is chosen *)
  area_flow : float;  (** heuristic area estimate *)
}

val make : int array -> depth:int -> area_flow:float -> t
(** [make leaves ~depth ~area_flow] is the cut over [leaves], which must be
    sorted and distinct, with its signature. *)

val trivial : int -> t
(** The cut containing only the node itself. *)

val merge : int -> t -> t -> int array option
(** [merge k a b] is the sorted union of the leaf sets if it has at most
    [k] leaves. A union that the signature refuses allocates nothing. *)

val dominates : t -> t -> bool
(** [dominates a b] iff [a]'s leaves are a subset of [b]'s: [b] is then
    redundant. Equal leaf sets dominate each other. *)

val compare_quality : t -> t -> int
(** Ordering used by the priority-cut filter: smaller depth first, then
    smaller area flow, then fewer leaves. *)
