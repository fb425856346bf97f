module Sat = Simgen_sat
module Literal = Sat.Literal
module Solver = Sat.Solver
module Drup = Sat.Drup

(* Static analysis over DRUP proof-event streams (D001..D009). Two
   regimes, chosen by whether the original formula is known:

   - structural (no formula): only checks that need nothing beyond the
     stream itself — learn-after-empty, tautological and duplicate-
     literal steps, Unsat-claimed-without-empty-clause. Deletions are
     never flagged structurally: an incremental session's proof slice
     legitimately deletes clauses learned in *earlier* slices, and a
     drat-trim-style file legitimately deletes input clauses, so an
     unknown delete is not evidence of anything.

   - semantic (with [~formula]): full multiset accounting of clause
     availability (formula + learns - deletes) enables the deletion
     checks — delete of a never-added clause, delete of an exhausted
     clause, and delete-then-use (a later step whose RUP derivation
     fails against the active set but succeeds once the deleted clauses
     are restored: exactly the corruption that breaks a trim forward
     pass).

   The split is what keeps the lint zero-false-positive over genuine
   solver streams while still catching every seeded corruption. *)

let canon lits = List.sort compare (Array.to_list lits)

let event_lits = function Solver.Learn c -> c | Solver.Delete c -> c

(* Tautology / duplicate detection over a sorted literal list: literals
   are ints with [2v] / [2v+1] encodings, so duplicates and negation
   pairs are adjacent after sorting. *)
let rec scan_sorted = function
  | a :: (b :: _ as rest) ->
      if a = b then `Duplicate
      else if a lxor b = 1 then `Tautology
      else scan_sorted rest
  | _ -> `Clean

let structural ?(expect_unsat = false) events =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let empty_at = ref (-1) in
  List.iteri
    (fun idx ev ->
      (match scan_sorted (canon (event_lits ev)) with
      | `Duplicate ->
          add
            (Diagnostic.warn ~loc:(Diagnostic.Clause idx) "D005"
               "duplicate literal in proof step %d" idx)
      | `Tautology ->
          add
            (Diagnostic.warn ~loc:(Diagnostic.Clause idx) "D004"
               "tautological proof step %d" idx)
      | `Clean -> ());
      match ev with
      | Solver.Learn lits ->
          if !empty_at >= 0 then
            add
              (Diagnostic.error ~loc:(Diagnostic.Clause idx) "D003"
                 "learn at step %d after the empty clause (step %d)" idx
                 !empty_at)
          else if Array.length lits = 0 then empty_at := idx
      | Solver.Delete _ -> ())
    events;
  if expect_unsat && !empty_at < 0 then
    add
      (Diagnostic.error "D008"
         "Unsat claimed but the proof never derives the empty clause");
  List.rev !diags

let semantic formula events =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* The engine holds the available clauses (formula + learns - deletes,
     as a multiset) enabled, and remembers every clause ever added to
     tell D001 from D002. *)
  let engine = Drup.Engine.create () in
  List.iter (fun c -> ignore (Drup.Engine.add engine c)) formula;
  (* Deleted clauses, disabled in the engine, for the delete-then-use
     check. *)
  let graveyard = ref [] in
  let empty_seen = ref false in
  List.iteri
    (fun idx ev ->
      match ev with
      | Solver.Learn lits ->
          if not !empty_seen then begin
            let clause = Array.to_list lits in
            if not (Drup.Engine.rup engine clause) && !graveyard <> [] then begin
              List.iter (Drup.Engine.enable engine) !graveyard;
              if Drup.Engine.rup engine clause then
                add
                  (Diagnostic.error ~loc:(Diagnostic.Clause idx) "D006"
                     "step %d only derivable from previously deleted \
                      clauses (delete-then-use)"
                     idx);
              List.iter (Drup.Engine.disable engine) !graveyard
            end;
            (* A step that fails RUP even with the graveyard restored is
               the DRUP checker's verdict (Invalid_step), not a stream-
               structure defect: no D code. *)
            if clause = [] then empty_seen := true
            else ignore (Drup.Engine.add engine clause)
          end
      | Solver.Delete lits -> (
          match Drup.Engine.find engine lits with
          | Some c ->
              Drup.Engine.disable engine c;
              graveyard := c :: !graveyard
          | None ->
              if Drup.Engine.added engine lits then
                add
                  (Diagnostic.error ~loc:(Diagnostic.Clause idx) "D002"
                     "step %d deletes a clause already deleted" idx)
              else
                add
                  (Diagnostic.error ~loc:(Diagnostic.Clause idx) "D001"
                     "step %d deletes a clause that was never added" idx)))
    events;
  List.rev !diags

let run ?formula ?expect_unsat events =
  let s = structural ?expect_unsat events in
  match formula with
  | None -> s
  | Some formula -> Diagnostic.sort (s @ semantic formula events)

let trim_anomaly = function
  | Drup.Non_rup_step i ->
      Diagnostic.warn ~loc:(Diagnostic.Clause i) "D009"
        "trim anomaly: step %d fails RUP in the forward pass; proof left \
         untrimmed"
        i
  | Drup.Underivable_goal ->
      Diagnostic.warn "D009"
        "trim anomaly: goal underivable from the proof; proof left untrimmed"
