(** Ternary cubes: one "row" of a node's truth table with don't-cares.

    A cube over [n] inputs assigns each input [F] (0), [T] (1) or [DC]
    (unassigned / don't-care) and carries the output value the row produces.
    Cubes are the unit SimGen's implication and decision steps work on
    (paper §4 and §5). *)

type lit = F | T | DC

type t = { lits : lit array; out : bool }

val make : lit array -> bool -> t

val dc_size : t -> int
(** Equation (1) of the paper: the number of don't-care inputs. *)

val to_truth_table : int -> t -> Truth_table.t
(** Characteristic function of the cube's input set over [n] variables. *)
