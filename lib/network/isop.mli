(** Irredundant sum-of-products covers (Minato–Morreale ISOP).

    SimGen's implication and decision procedures iterate over "truth table
    rows", i.e. a cube cover of the node function. We compute an irredundant
    cover of the on-set and of the off-set so that don't-cares are maximal —
    exactly the DCs the heuristic of §5 prefers to keep unassigned.

    Tables of 1 to 6 variables — every K <= 6 LUT — run the recursion on
    one 64-bit word ({!Truth_table.cofactor_word}), with cubes packed two
    bits per variable into one buffer, so no table or cube list is built
    per step. Tables of 0 or 7 to 16 variables run the generic recursion
    on multi-word tables ({!reference_cover}). Both paths pick the same
    split variable at every step, so they return the same cubes in the
    same order; the clause order of every CNF encoding built from these
    covers does not depend on the path. *)

val cover : Truth_table.t -> Cube.t list
(** Cubes with [out = true] covering exactly the on-set of the function.
    Constant functions yield a single all-DC cube ([true]) or no cube
    ([false]). *)

val reference_cover : Truth_table.t -> Cube.t list
(** {!cover} by the generic recursion for every width: the only path for
    0 or 7 to 16 variables. Test reference: the tests hold the one-word
    path to it. *)

val rows : Truth_table.t -> Cube.t list
(** On-set cubes (out = true) followed by off-set cubes (out = false): the
    complete row set of the node's "truth table with don't-cares". *)

val cover_to_truth_table : int -> Cube.t list -> Truth_table.t
(** Union of the given cubes' input sets (ignores [out]).
    Test reference: the cover tests check that [cover f] rebuilds [f]. *)
