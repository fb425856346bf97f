(** And-Inverter Graphs with structural hashing.

    The AIG is the construction substrate: benchmark generators build AIGs
    through the smart constructors below (which fold constants, share
    structurally identical nodes and normalise operand order), and the K-LUT
    mapper consumes AIGs to produce the LUT networks SimGen operates on —
    the in-repo equivalent of feeding a design through ABC. *)

type t

type lit = int
(** A literal is [2 * node + complement]. Node 0 is the constant false, so
    {!false_} = 0 and {!true_} = 1. *)

val create : ?name:string -> unit -> t

val name : t -> string

(** {2 Literals} *)

val false_ : lit
val true_ : lit
val not_ : lit -> lit
val lit_of_node : int -> bool -> lit
(** [lit_of_node n c] is node [n]'s literal, complemented when [c].
    Test seam: the AIG lint tests name nodes by id, valid or not. *)

val node_of_lit : lit -> int
val is_complemented : lit -> bool

(** {2 Construction} *)

val add_pi : t -> lit
val and_ : t -> lit -> lit -> lit
(** Strashing constructor: constant folding, idempotence, complement
    annihilation, operand ordering, structural-hash lookup. *)

val or_ : t -> lit -> lit -> lit
val xor : t -> lit -> lit -> lit
val mux : t -> lit -> lit -> lit -> lit
(** [mux t sel a b] is [if sel then a else b]. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

val add_po : ?name:string -> t -> lit -> unit

(** {2 Inspection} *)

val num_nodes : t -> int
(** Including the constant node 0 and PIs. *)

val num_pis : t -> int
val num_pos : t -> int
val num_ands : t -> int

val is_const : t -> int -> bool
val is_and : t -> int -> bool
val pi_index : t -> int -> int

val fanin0 : t -> int -> lit
val fanin1 : t -> int -> lit
(** Fanins of an AND node. *)

val pis : t -> int array
val pos : t -> lit array
val po_name : t -> int -> string option

val fanout_counts : t -> int array
(** Number of AND/PO references per node. *)

val iter_ands : t -> (int -> unit) -> unit
(** AND nodes in topological (id) order. *)

val level : t -> int array
(** Longest-path levels (PIs and constant at 0). Test reference: the
    mapper tests bound LUT depth by it. *)

val eval : t -> bool array -> bool array
(** Scalar simulation: value of every node given PI values (by PI
    index). Test reference: the AIG-level oracle the generator,
    conversion and mapping tests compare against. *)

val eval_pos : t -> bool array -> bool array
(** PO values given PI values. Test reference: as {!eval}. *)

val eval_lit : bool array -> lit -> bool
(** [eval_lit node_values l]. Test reference: as {!eval}. *)

val cleanup : t -> t
(** Structural copy keeping only nodes reachable from POs. PIs are all kept
    (indices preserved). *)

module Unsafe : sig
  val push_and : t -> lit -> lit -> lit
  (** Append an AND node verbatim: no operand ordering, constant folding,
      or structural-hash lookup — and no validation of the fanin literals.
      Can produce exactly the non-canonical or ill-formed structures the
      [simgen_check] AIG lints detect. Test seam: the AIG lint tests
      build their malformed graphs with it. *)
end
