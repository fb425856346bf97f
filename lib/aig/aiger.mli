(** AIGER ASCII ("aag") reader and writer, combinational subset
    (no latches). *)

exception Parse_error of Simgen_base.Srcloc.t * string
(** Malformed input, located by file and (for body/header problems) the
    offending physical line. *)

val parse_string : ?file:string -> string -> Aig.t
(** [file] only labels {!Parse_error} locations; the string is the input.
    Test seam: the round-trip tests parse without files. *)

val parse_file : string -> Aig.t

val to_string : Aig.t -> string
(** Test seam: the round-trip tests print without files. *)

val write_file : string -> Aig.t -> unit
