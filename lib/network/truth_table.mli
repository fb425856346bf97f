(** Truth tables over a fixed number of input variables.

    A table over [n] variables stores [2^n] bits, bit [i] giving the output
    for the input minterm whose variable [k] equals bit [k] of [i]. Tables
    support up to {!max_vars} variables and are the canonical node-function
    representation of the Boolean-network substrate: every LUT in a mapped
    network carries one. *)

type t

val max_vars : int
(** 16: ample for K-LUT mapping (K = 6 in the paper's flow) and for BLIF
    nodes of moderate width. *)

val nvars : t -> int

val create_const : int -> bool -> t
(** [create_const n b] is the constant-[b] function of [n] variables. *)

val var : int -> int -> t
(** [var i n] is the projection of variable [i] among [n] variables. *)

val of_bits : int -> int64 -> t
(** [of_bits n bits] builds a table over [n <= 6] variables from the low
    [2^n] bits of [bits]. Test seam: tests write small tables as bit
    literals. *)

val get_bit : t -> int -> bool
(** [get_bit t m] is the output on minterm [m]. Test seam: tests read
    tables minterm by minterm. *)

val eval : t -> bool array -> bool
(** [eval t inputs] with [Array.length inputs = nvars t]. *)

(** Pointwise connectives. Arguments must have equal [nvars]. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t

val equal : t -> t -> bool
val hash : t -> int

val word : t -> int -> int64
(** [word t w] is word [w] of the table, without copying: bit [b] is the
    output on minterm [64 w + b]. A table over [n] variables has
    [2^(n-6)] words when [n > 6] and one otherwise, whose bits from [2^n]
    up are zero. *)

(** {2 One-word tables}

    A table over at most 6 variables is one word (see {!word}). These
    read and transform such a word directly, for kernels that keep a
    table in a register; {!cofactor} and {!depends_on} use them on every
    word of a table for variables below 6. *)

val last_mask : int -> int64
(** [last_mask n] has the [2^n] low bits set for [n < 6], every bit
    from [n = 6] up: the bits a one-word table over [n] variables uses. *)

val var_pattern : int -> int64
(** [var_pattern i], [0 <= i < 6]: the word of variable [i], bit [m] set
    when bit [i] of minterm [m] is. *)

val cofactor_word : int64 -> int -> bool -> int64
(** [cofactor_word x i b] is {!cofactor} on one word, for [0 <= i < 6]. *)

val depends_on_word : int64 -> int -> bool
(** [depends_on_word x i] is {!depends_on} on one word, for [0 <= i < 6]. *)

val is_const : t -> bool option
(** [Some b] if the table is the constant [b], else [None]. *)

val cofactor : t -> int -> bool -> t
(** [cofactor t i b] fixes variable [i] to [b]; the result keeps the same
    [nvars] (variable [i] becomes irrelevant). *)

val depends_on : t -> int -> bool
(** Whether the function actually depends on variable [i]. *)

val count_ones : t -> int
(** Number of satisfied minterms. Test reference: the construction and
    cover tests count on-sets with it. *)

val of_minterms : int -> int list -> t
(** Table over [n] variables that is true exactly on the given minterms. *)

val random : Simgen_base.Rng.t -> int -> t
(** Uniformly random table over [n] variables. Test seam: the property
    tests draw their functions with it. *)

val to_string : t -> string
(** Bit string, minterm [2^n - 1] first (matching common LUT notation).
    Test seam: tests print and read tables as bit strings. *)

val of_string : string -> t
(** Inverse of {!to_string}; the length must be a power of two.
    Test seam: as {!to_string}. *)
