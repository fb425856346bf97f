(** Per-function row cache.

    SimGen repeatedly consults the "truth table rows" of node functions
    (paper §4). Rows — ISOP cubes of the on-set and off-set — are computed
    once per distinct truth table and shared across all LUTs with that
    function, together with row sets that let the engine match and imply
    rows with word operations instead of comparing them cube by cube.
    The cubes come from {!Simgen_network.Isop.rows}, which computes the
    covers of a table of 1 to 6 inputs on one machine word, so filling
    the cache for a new network costs little even though each engine
    starts with an empty one. *)

type table = private {
  cubes : Simgen_network.Cube.t array;
      (** on-set cubes first, then off-set cubes *)
  words : int;  (** words per row set *)
  sets : int array;
      (** Row sets of [words] words each, set [s] starting at
          [s * words]. Row [r] is bit [r mod bits_per_word] of word
          [r / bits_per_word]; bits past the last row are clear. *)
}

val bits_per_word : int
(** 63: every bit of an OCaml [int]. *)

val all_rows : int
(** Set index of every row. *)

val on_rows : int
(** Set index of the rows with output 1. *)

val input_rows : int
(** Set index of the rows with literal [T] at input 0. Input sets come
    in pairs: the rows with [T] at input [i] are set [input_rows + 2 i],
    those with [F] at input [i] set [input_rows + 2 i + 1]. The layout is
    part of the interface so that the engine steps through a gate's
    input sets with plain arithmetic, not a call per input. *)

type t

val create : unit -> t

val find : t -> Simgen_network.Truth_table.t -> table
(** The function's rows and row sets, built on first use. *)
