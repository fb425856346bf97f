(** Batch job descriptions and results.

    A job is one CEC instance (a pair of circuits) or one sweep instance
    (a single circuit to simplify), plus its sweep options and budget.
    Circuits are loaded {e inside} the worker that executes the job, so
    jobs share no mutable state and can run on separate domains. *)

type circuit =
  | File of string  (** a [.blif], [.bench] or [.aag] file *)
  | Suite of string  (** a built-in suite benchmark by name *)
  | Suite_stacked of string  (** its [putontop]-stacked variant (§6.4) *)
  | Inline of Simgen_network.Network.t
      (** an in-memory network (tests/embedding); treated as read-only *)

type kind = Cec of circuit * circuit | Sweep of circuit

type spec = {
  id : int;  (** unique within a batch; keys the telemetry stream *)
  label : string;
  kind : kind;
  options : Simgen_sweep.Sweep_options.t;
      (** the sweep settings: seed (results are deterministic in it),
          strategy, rounds, SAT-call cap, conflict budget,
          certification, solver audit, and the cut check
          ([fun_cache]). The executor fills in [should_stop] and
          [observe] at each attempt *)
  limits : Budget.limits;  (** deadline and watchdog *)
  retry : Retry_policy.t;  (** supervisor policy for retryable failures *)
}

type status =
  | Equivalent  (** CEC: all PO pairs proved *)
  | Not_equivalent of { po : int; vector : bool array }
  | Inconclusive of { pos : int list }
      (** CEC: no PO pair disproved, but these PO indices were
          quarantined by the degradation ladder — no verdict rather than
          a wrong one *)
  | Swept  (** sweep job ran to completion *)
  | Budget_exhausted of Budget.reason
      (** partial result: the flow report covers the work done before
          the budget tripped or the SAT-call cap was spent *)
  | Failed of { message : string; attempts : int; faults : (string * int) list }
      (** every attempt raised (bad file, PI mismatch, a repeated
          invariant violation, ...): the last message, the attempts
          spent, and the fault sites that fired during the job *)

type result = {
  spec : spec;
  status : status;
  flow : Simgen_sweep.Cec.report option;
      (** the last attempt's flow report: costs, guided and SAT stats,
          PO-phase queries. [None] when no attempt reached the flow (a
          load or lint failure, a crash, a stalled-out attempt) *)
  cache_hits : int;  (** patterns replayed from the shared cache *)
  cache_added : int;  (** counter-examples contributed to the cache *)
  worker : int;
  attempts : int;  (** supervisor attempts this result took (>= 1) *)
  quarantined : (int * int) list;
      (** candidate pairs the degradation ladder gave up on *)
  time : float;
}

val make :
  ?label:string ->
  ?options:Simgen_sweep.Sweep_options.t ->
  ?limits:Budget.limits ->
  ?retry:Retry_policy.t ->
  id:int ->
  kind ->
  spec
(** Defaults: {!Simgen_sweep.Sweep_options.default}, no limits, no
    retries ({!Retry_policy.none}). *)

val status_to_string : status -> string

val read_network : string -> Simgen_network.Network.t
(** Parse a circuit file by extension ([.blif]/[.bench]/[.aag]). *)

val load : circuit -> Simgen_network.Network.t
(** Load or generate the circuit. @raise Failure on unknown names/files. *)
