(** Whole-sweep certificates and their independent checker.

    A certified sweep records, next to the merged network, everything an
    auditor needs to re-establish each merge without trusting the sweeper
    or its solver: the CNF problem clauses streamed into the per-sweep
    SAT session, the DRUP proof events of every pair query, and the merge
    log [(repr, node, proof_ref)]. {!check} replays the whole object —
    it re-derives every learned clause by reverse unit propagation on
    {!Simgen_sat.Drup.Engine}, which shares no code with the solver (this
    module keeps only the slice policy), reconstructs
    the activation-literal guard clauses itself (verifying the activation
    variable is fresh, which is what makes retiring a query by a negated
    unit and tying proven-equal variables sound), re-proves each query's
    [not act] obligation, trims unused lemmas per query, and finally
    confirms the substitution the merge log builds is monotone (each
    representative strictly below the node it absorbs), acyclic, and that
    every merge cites a query that proved exactly that pair equal.

    Trust boundary: the checker validates the propositional layer and
    the merge log; the binding between network nodes and CNF variables
    (that [clauses] really encode the cones of [a] and [b]) is taken
    from the recorder, exactly as {!Simgen_sat.Drup.check} trusts its
    [formula] argument. See DESIGN.md §11. *)

type query =
  | Session of {
      a : int;  (** first node of the queried pair (resolved) *)
      b : int;  (** second node of the queried pair (resolved) *)
      act : int;  (** activation variable guarding the XOR miter *)
      va : int;  (** CNF variable of [a]'s cone output *)
      vb : int;  (** CNF variable of [b]'s cone output *)
      equal : bool;  (** solver answered Equal: obligation [not act] *)
      clauses : Simgen_sat.Literal.t list list;
          (** problem clauses added to the session since the previous
              query (cone encodings), oldest first. Guard clauses, the
              retirement unit and the tie clauses are {e excluded}: the
              checker reconstructs them from [act]/[va]/[vb]. *)
      events : Simgen_sat.Solver.proof_event list;
          (** DRUP events of this query's solve, oldest first *)
    }
  | Fresh of {
      a : int;
      b : int;
      clauses : Simgen_sat.Literal.t list list;
          (** complete standalone formula, own variable space *)
      events : Simgen_sat.Solver.proof_event list;
          (** proof; the obligation is the empty clause *)
    }
  | Rebuild
      (** the session was torn down and rebuilt (fault recovery): variable
          numbering restarts, so the checker resets its clause database *)

type merge = {
  repr : int;  (** surviving representative (the smaller id) *)
  node : int;  (** node redirected onto [repr] *)
  proof : int;  (** index into the query array, [-1] = unproven *)
}

type t = {
  num_nodes : int;
  queries : query array;  (** in session order *)
  merges : merge list;  (** in the order the sweep performed them *)
}

type report = {
  valid : bool;
  queries : int;  (** query records examined (including rebuilds) *)
  proved : int;  (** queries whose equal-obligation checked out *)
  merges : int;
  steps : int;  (** proof events examined *)
  steps_checked : int;  (** RUP derivations actually re-run *)
  steps_trimmed : int;  (** lemmas skipped as deleted-and-unused *)
  diags : Diagnostic.t list;
      (** X-codes plus proof-lint D-codes over every proof slice;
          [valid] iff none has error severity *)
}

val check : t -> report
(** Replay and validate the whole certificate. Never raises; all
    failures surface as error-severity X-code diagnostics:
    X001 learned clause fails reverse unit propagation,
    X002 a query's proof obligation is not derivable,
    X003 activation variable not fresh (or clashes with [va]/[vb]),
    X004 merge cites no valid proof of exactly that pair,
    X005 merge not monotone ([repr >= node]),
    X006 substitution cycle after replaying the merge log,
    X007 node merged twice,
    X008 malformed certificate (ids out of range). *)

val to_jsonl : t -> report option -> string
(** Render the certificate (and optionally its check report) as JSONL:
    one [certificate] header line, one line per query (literals in DIMACS convention),
    one line per merge, and a trailing [report] line when given. *)
