(** Word-parallel circuit simulation (paper §2.3).

    Simulates 64 input vectors at a time: each node's value is an [int64]
    word whose bit [k] is the node's output under the [k]-th vector of the
    batch. One kernel, {!eval_lut}, evaluates every LUT of every word
    simulator: for each 64-minterm word of the gate's truth table, a
    6-level mux tree over fanin words 0-5 selects that word's minterm bit
    in each lane; a further mux tree over fanins 6 and up selects across
    the table words. It allocates nothing but its result, and its scratch
    buffer when a gate wider than any before it arrives. *)

type scratch
(** Working space of {!eval_lut}. Not shareable between domains: take one
    per simulation pass. *)

val scratch : unit -> scratch

val eval_lut :
  scratch ->
  Simgen_network.Truth_table.t ->
  Simgen_network.Network.node_id array ->
  int64 array ->
  int64
(** [eval_lut s f fanins words] is the word of a LUT with function [f]
    whose fanin [i] carries the word [words.(fanins.(i))]; [fanins] holds
    one id per variable of [f]. Any arity up to
    {!Simgen_network.Truth_table.max_vars}. *)

val simulate_word :
  Simgen_network.Network.t -> int64 array -> int64 array
(** [simulate_word net pi_words] takes one word per PI (by PI index) and
    returns one word per node (by node id). *)

val random_word :
  Simgen_base.Rng.t -> Simgen_network.Network.t -> int64 array
(** Fresh batch of 64 uniformly random input vectors. *)

val vector_word : bool array -> int -> int64 array -> unit
(** [vector_word vec k words] sets bit [k] of each PI word from the single
    input vector [vec] (by PI index). *)

val word_of_vector : Simgen_network.Network.t -> bool array -> int64 array
(** One-vector batch: bit 0 carries the vector, the remaining 63 bits are
    copies (so any bit position can be used). *)
