(** BLIF reader and writer (Berkeley Logic Interchange Format, the
    combinational subset: [.model], [.inputs], [.outputs], [.names],
    [.end]). Sufficient to exchange LUT networks with ABC-style tools. *)

exception Parse_error of Simgen_base.Srcloc.t * string
(** Malformed input, located as precisely as the reader can: cover rows
    and directives carry their line; elaboration errors (undefined or
    twice-defined signals, combinational loops) point at the offending
    [.names] definition. *)

val parse_string : ?file:string -> string -> Network.t
(** [file] only labels {!Parse_error} locations; the string is the input.
    Test seam: the round-trip tests parse without files. *)

val parse_file : string -> Network.t

val to_string : Network.t -> string
(** Test seam: the round-trip tests print without files. *)

val write_file : string -> Network.t -> unit
