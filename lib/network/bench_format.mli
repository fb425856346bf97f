(** ISCAS / ITC'99 ".bench" reader and writer (combinational subset:
    INPUT, OUTPUT, AND/NAND/OR/NOR/XOR/XNOR/NOT/BUF gate assignments). *)

exception Parse_error of Simgen_base.Srcloc.t * string
(** Malformed input with the offending line when known; elaboration errors
    (unknown gate, loop, double definition) point at the defining
    assignment. *)

val parse_string : ?file:string -> string -> Network.t
(** [file] only labels {!Parse_error} locations; the string is the input.
    Test seam: the round-trip tests parse without files. *)

val parse_file : string -> Network.t

val to_string : Network.t -> string
(** Writes every gate as a LUT-style assignment using primitive gates when
    the node function is one, otherwise decomposes through its ISOP cover
    into AND/OR/NOT primitives. Test seam: the round-trip tests print
    without files. *)

val write_file : string -> Network.t -> unit
