(** Independent DRUP proof checking.

    Validates an UNSAT answer without trusting the solver: every learned
    clause must follow from the current formula by {e reverse unit
    propagation} (assuming the clause's negation and propagating units
    must yield a conflict), and the proof must derive the empty clause.
    The checker shares no code with the solver's propagation engine.

    {!Engine} is the one RUP implementation outside the solver: {!check},
    {!trim}, the proof-stream lint and the whole-sweep certificate
    checker ([Simgen_check]) all run on it. *)

type verdict =
  | Valid  (** the proof derives the empty clause, every step RUP-checked *)
  | Invalid_step of int  (** 0-based index of the first non-RUP addition *)
  | Incomplete  (** all steps valid but the empty clause never derived *)

(** An incremental RUP engine: a clause database with two watched
    literals per clause and a root trail, kept between calls as the
    unit-propagation fixpoint of the enabled clauses. Enabling a clause
    propagates what it implies; disabling one retracts the root units it
    implied and everything derived after them, then re-derives what the
    remaining clauses still imply. A check can therefore never lean on a
    unit that only a disabled clause supported. *)
module Engine : sig
  type t
  type clause

  val create : unit -> t

  val add : ?tag:int -> t -> Literal.t list -> clause
  (** Add an enabled clause. [tag] (default [-1]) is the caller's label,
      returned by {!tag}; the engine never reads it. *)

  val tag : clause -> int

  val find : t -> Literal.t array -> clause option
  (** The newest enabled clause with exactly these literals (as a
      multiset, in any order), if any: the target of a deletion. *)

  val added : t -> Literal.t array -> bool
  (** Was a clause with exactly these literals ever added, enabled or
      not? *)

  val enable : t -> clause -> unit
  val disable : t -> clause -> unit

  val occurs : t -> int -> bool
  (** Does the variable occur in some added clause? *)

  val rup : ?on_used:(clause -> unit) -> t -> Literal.t list -> bool
  (** Does the clause follow from the enabled clauses by reverse unit
      propagation? A root-inconsistent database entails everything.
      [on_used] is called on every clause the derivation used: each that
      propagated a unit or closed the conflict, and the reasons of the
      root units those rest on (an over-approximation of the resolution
      antecedents, which is what trimming keeps). *)
end

val check :
  Literal.t list list -> Solver.proof_event list -> verdict
(** [check formula proof] where [formula] is the original clause set. A
    deletion removes one enabled copy of the clause, if any. *)

type trim_anomaly =
  | Non_rup_step of int
      (** 0-based index of the forward-pass step that failed RUP *)
  | Underivable_goal  (** the proof derives no empty clause *)

val trim :
  ?on_anomaly:(trim_anomaly -> unit) ->
  Literal.t list list ->
  Solver.proof_event list ->
  Solver.proof_event list
(** [trim ?on_anomaly formula proof] drops deleted and unused lemmas. A
    forward pass re-derives each learned clause recording which earlier
    steps its derivation used ({!Engine.rup}'s [on_used]); a backward pass
    keeps only the steps reachable from the empty clause. The result
    contains only [Learn] events (deletions are dropped: RUP is monotone
    in the clause set, so a proof stays valid without them) and still
    satisfies {!check} whenever the input did. On any anomaly — a non-RUP
    step, no empty clause derived — the input proof is returned unchanged, so
    trimming never turns a checkable proof uncheckable; [on_anomaly]
    (default: ignore) is called with the anomaly so callers can surface
    it instead of silently shipping an untrimmed proof. *)

val to_dimacs_proof : Solver.proof_event list -> string
(** DRUP text format (one clause per line, deletions prefixed ["d"]),
    compatible with external checkers such as drat-trim. *)

exception Parse_error of Simgen_base.Srcloc.t * string

val parse_string : ?file:string -> string -> Solver.proof_event list
(** Inverse of {!to_dimacs_proof}: parse DRUP text into an event stream.
    Accepts the drat-trim surface syntax — [c] comment lines, blank
    lines, CRLF endings, clauses spanning lines or sharing one — where a
    leading [d] token turns the next 0-terminated clause into a
    [Delete]. Raises {!Parse_error} (with a line-accurate location) on a
    malformed token, a [d] inside a clause, or a missing terminator.
    Test seam: the parser tests read proofs without files. *)

val parse_file : string -> Solver.proof_event list
(** {!parse_string} over a file's contents. *)
