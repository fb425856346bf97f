(** Static analysis over DRUP proof-event streams.

    Lints a {!Simgen_sat.Solver.proof_event} stream — a solver's live
    recording, a certificate's per-query slice, or a parsed [.drup] file
    — for structural defects the RUP checker ({!Simgen_sat.Drup.check})
    does not look for. Diagnostics carry stable [D]-codes (DESIGN.md
    keeps the table); locations are [Clause] event indices (0-based).

    Two regimes:

    - {e structural} (no [~formula]): checks needing nothing beyond the
      stream — [D003] learn after the empty clause (error), [D004]
      tautological step (warning), [D005] duplicate-literal step
      (warning), [D008] Unsat claimed without the empty clause derived
      (error, only with [~expect_unsat:true]). Deletions are never
      flagged structurally: a session slice legitimately deletes clauses
      learned in earlier slices, and drat-trim files legitimately delete
      input clauses.

    - {e semantic} ([~formula] given): full multiset accounting of
      clause availability adds [D001] delete of a never-added clause
      (error), [D002] delete of an already-deleted clause (error) and
      [D006] delete-then-use — a step whose RUP derivation fails against
      the active clauses but succeeds with the deleted ones restored
      (error). *)

val run :
  ?formula:Simgen_sat.Literal.t list list ->
  ?expect_unsat:bool ->
  Simgen_sat.Solver.proof_event list ->
  Diagnostic.t list
(** Lint a stream; see the regime table above. Returns [[]] on a clean
    stream. *)

val trim_anomaly : Simgen_sat.Drup.trim_anomaly -> Diagnostic.t
(** [D009] (warning): a {!Simgen_sat.Drup.trim} bail-out — the proof was
    returned untrimmed because a forward-pass step failed RUP or the
    proof derived no empty clause. *)
