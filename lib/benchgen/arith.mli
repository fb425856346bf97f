(** Arithmetic circuit generators (AIG builders).

    Word operands are literal arrays, least-significant bit first. These
    provide the arithmetic-dominated benchmark topologies (alu4, dalu,
    square, sin, log2, cordic, ...) of the synthetic suite. *)

type lit = Simgen_aig.Aig.lit
type aig = Simgen_aig.Aig.t

val ripple_adder : aig -> lit array -> lit array -> cin:lit -> lit array * lit
(** Sum bits and carry out; operands must have equal width. *)

val square : aig -> lit array -> lit array
(** [a * a] through an array multiplier (result width twice the operand
    width) — the EPFL "square" workload shape. *)

val alu : aig -> op:lit array -> lit array -> lit array -> lit array
(** A small ALU: 2 op-select bits choose among add, subtract, AND, XOR. *)

val shift_add_cascade : aig -> rounds:int -> lit array -> lit array
(** CORDIC-style cascade: each round conditionally adds an
    arithmetically-shifted copy of the running value, steered by the
    round's control bit (taken from the value's low bits). Models the
    sin/cordic benchmark topology. *)

val log_approx : aig -> lit array -> lit array
(** Priority-encoder + table-interpolation structure approximating a
    base-2 logarithm's topology (leading-one detection feeding an adder). *)
