(** Single stuck-at faults on LUT outputs.

    The fault model behind the ATPG techniques SimGen borrows (paper
    §2.4): a fault pins one node's output to a constant; a test pattern
    must {e activate} it (drive the node to the opposite value) and
    {e propagate} the discrepancy to a primary output. *)

type t = {
  node : Simgen_network.Network.node_id;
  stuck : bool;  (** the value the defect pins the node to *)
}

val all_gate_faults : Simgen_network.Network.t -> t list
(** Both polarities on every gate output, in node order. *)

val to_string : Simgen_network.Network.t -> t -> string
(** E.g. ["n17/SA0"]. Test seam: the ATPG example prints a fault with
    it, and [test_atpg]'s "fault to_string" pins the format. *)

val detects : Simgen_network.Network.t -> t -> bool array -> bool
(** Whether the vector distinguishes faulty from fault-free POs. *)

val detects_word :
  Simgen_network.Network.t -> t -> int64 array -> int64
(** Word-parallel detection: bit [k] set iff vector lane [k] detects the
    fault ([pi_words] as in {!Simgen_sim.Simulator.simulate_word}). *)
