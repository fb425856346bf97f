(** Structured diagnostics for the static-analysis and audit layer.

    Every finding the [simgen_check] analyzers produce is a {!t}: a stable
    code (the contract with tests, CI greps and the docs table in
    DESIGN.md), a severity, a location and a human message. Renderers
    cover the two consumers: a colour-free single-line form for terminals
    and a JSONL form for machine pipelines (one object per line, same
    shape as the runner's telemetry events). *)

type severity = Error | Warning | Info

type location =
  | Node of int  (** node id in a network or AIG *)
  | Clause of int  (** 0-based clause index in a CNF *)
  | Named of string  (** symbolic name (PO, signal) *)
  | Src of Simgen_base.Srcloc.t  (** file/line of a parsed source *)
  | Nowhere

type t = {
  code : string;  (** stable, e.g. ["N001"]; see DESIGN.md for the table *)
  severity : severity;
  loc : location;
  message : string;
}

val error : ?loc:location -> string -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [error ~loc code fmt ...] — and likewise {!warn} and {!info}. *)

val warn : ?loc:location -> string -> ('a, Format.formatter, unit, t) format4 -> 'a
val info : ?loc:location -> string -> ('a, Format.formatter, unit, t) format4 -> 'a

val counts : t list -> int * int * int
(** (errors, warnings, infos). *)

val exit_code : t list -> int
(** Shell convention for the [lint] subcommand: 0 = clean or info only,
    1 = warnings, 2 = errors. *)

val sort : t list -> t list
(** Stable order for output: severity (errors first), then code, then
    original order. *)

val to_string : t -> string
(** One line: [code severity location: message]. *)

val schema_version : int
(** Version of the JSONL shape emitted by {!to_json}; bumped on any
    field change so telemetry consumers can detect format drift. A
    golden-file test pins the rendered form. *)

val json : t -> Simgen_base.Json.t
(** One JSON object:
    [{"schema_version":...,"code":...,"severity":...,"loc":{...},"message":...}]. *)

val to_json : t -> string
(** [json], printed on one line (no trailing newline). Test seam: the
    diagnostic tests check one rendering at a time. *)

val render : ?json:bool -> Format.formatter -> t list -> unit
(** All diagnostics in {!sort} order, one per line. *)
