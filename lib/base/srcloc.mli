(** Source locations for parsed circuit and CNF files.

    A location is a (file, line) pair where either side may be unknown:
    readers report the file they were given and the line a construct came
    from, while errors detected after parsing (e.g. during elaboration)
    usually carry only the file. The diagnostics layer ([simgen_check])
    embeds these locations in its structured reports. *)

type t = { file : string option; line : int option }

val none : t
val in_file : string -> t
val make : ?file:string -> ?line:int -> unit -> t
val with_line : t -> int -> t
val is_none : t -> bool

val to_string : t -> string option
(** ["file:line"], ["file"] or ["line N"]; [None] when nothing is known. *)
