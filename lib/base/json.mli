(** JSON values with a printer and a parser.

    One printer for every JSON line the repo writes (runner telemetry,
    diagnostics, the daemon protocol, sweep certificates, the bench's
    [BENCH_*.json] files): compact, strings escape quote, backslash and
    control characters, floats print as [%.6f]. The parser covers
    the full value grammar; [\u] escapes outside ASCII decode as ['?']. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val parse : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val int_member : string -> t -> int option
val string_member : string -> t -> string option
(** Typed field lookups: [None] when absent or of another type. *)
