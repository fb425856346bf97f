(** Ternary simulation values.

    Propagation assigns 0 and 1; an unassigned node is a don't-care
    (paper Definition 2.1). *)

type t = Zero | One | Unknown

val of_bool : bool -> t
val to_bool : t -> bool option
val is_assigned : t -> bool
val compatible : t -> Simgen_network.Cube.lit -> bool
(** Whether a value is consistent with a cube literal: an [Unknown] value is
    compatible with everything, and a cube [DC] accepts everything.
    Test reference: the engine tests match rows against values with
    it. *)
