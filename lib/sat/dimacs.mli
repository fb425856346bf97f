(** DIMACS CNF reading and writing, for interoperability and debugging. *)

exception Parse_error of Simgen_base.Srcloc.t * string
(** Malformed input with the offending line when known. *)

val parse_string : ?file:string -> string -> int * Literal.t list list
(** Returns (number of variables, clauses). [file] only labels
    {!Parse_error} locations. Test seam: the round-trip tests parse
    without files. *)

val parse_file : string -> int * Literal.t list list

val to_string : int -> Literal.t list list -> string
(** Test seam: the round-trip tests print without files. *)