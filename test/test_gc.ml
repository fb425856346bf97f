(* Clause-database management: group retraction, which logs no proof
   events, root-level simplification, cross-call restart accumulation,
   and the session GC differential (the collecting session against the
   fresh-solver route: clause counts differ, verdicts never). *)

module S = Simgen_sat.Solver
module L = Simgen_sat.Literal
module Drup = Simgen_sat.Drup
module N = Simgen_network.Network
module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Cert = Simgen_check.Certificate
module Diagnostic = Simgen_check.Diagnostic

(* n pigeons, m holes; each clause extended with [extra] (an activation
   guard) when given. *)
let php ?extra s n m =
  let guard c = match extra with None -> c | Some l -> l :: c in
  let x = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for p = 0 to n - 1 do
    S.add_clause s (guard (List.init m (fun h -> L.pos x.(p).(h))))
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        S.add_clause s (guard [ L.neg x.(p1).(h); L.neg x.(p2).(h) ])
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* remove_group                                                        *)
(* ------------------------------------------------------------------ *)

let test_remove_group_retracts () =
  let s = S.create () in
  let x = S.new_var s in
  let g = S.new_var s in
  S.add_clause ~group:7 s [ L.neg g; L.pos x ];
  S.add_clause ~group:7 s [ L.neg g; L.neg x ];
  (* The group is contradictory under its activation literal. *)
  Alcotest.(check bool) "unsat under the guard" true
    (S.solve ~assumptions:[ L.pos g ] s = S.Unsat);
  (* Session discipline: retire the guard first, then physically
     retract — the group clauses are consequences of the retirement unit,
     so removal is sound regardless of what was learned from them. *)
  S.add_clause s [ L.neg g ];
  Alcotest.(check int) "both clauses removed" 2 (S.remove_group s 7);
  Alcotest.(check int) "unknown group removes nothing" 0 (S.remove_group s 7);
  Alcotest.(check bool) "instance intact after retraction" true
    (S.solve s = S.Sat);
  (* A later, independent query is unaffected by the dead group. *)
  let y = S.new_var s in
  let h = S.new_var s in
  S.add_clause ~group:8 s [ L.neg h; L.pos y ];
  Alcotest.(check bool) "fresh guarded query" true
    (S.solve ~assumptions:[ L.pos h ] s = S.Sat);
  Alcotest.(check bool) "guarded clause active" true (S.value s y);
  let st = S.stats s in
  Alcotest.(check int) "counted as removed" 2 st.S.removed;
  Alcotest.(check int) "one live problem clause" 1 st.S.live_clauses

let test_remove_group_logs_no_events () =
  let s = S.create () in
  S.enable_proof s;
  let a = S.new_var s in
  let g = S.new_var s in
  let c1 = [ L.neg g; L.pos a ] and c2 = [ L.neg g; L.neg a ] in
  S.add_clause ~group:1 s c1;
  S.add_clause ~group:1 s c2;
  Alcotest.(check bool) "unsat under assumption" true
    (S.solve ~assumptions:[ L.pos g ] s = S.Unsat);
  (* Retire the query and retract its clauses: the proof stream does not
     change, since a checker that keeps a retracted clause only gets
     stronger. *)
  S.add_clause s [ L.neg g ];
  let events = S.proof_event_count s in
  Alcotest.(check int) "group retracted" 2 (S.remove_group s 1);
  Alcotest.(check int) "no events recorded" events (S.proof_event_count s);
  (* The proof still checks: finish with a real refutation on fresh
     variables and validate the whole stream against every problem
     clause ever added, the retracted ones included. *)
  let formula = ref [ c1; c2; [ L.neg g ] ] in
  let n = 4 and m = 3 in
  let x = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for p = 0 to n - 1 do
    let c = List.init m (fun h -> L.pos x.(p).(h)) in
    formula := c :: !formula;
    S.add_clause s c
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        let c = [ L.neg x.(p1).(h); L.neg x.(p2).(h) ] in
        formula := c :: !formula;
        S.add_clause s c
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "proof after retraction validates" true
    (Drup.check (List.rev !formula) (S.proof_events s) = Drup.Valid)

(* ------------------------------------------------------------------ *)
(* simplify                                                            *)
(* ------------------------------------------------------------------ *)

let test_simplify_collects_root_satisfied () =
  let s = S.create () in
  let a = S.new_var s in
  let b = S.new_var s in
  S.add_clause s [ L.pos a; L.pos b ];
  S.add_clause s [ L.pos a; L.neg b ];
  (* The unit satisfies both stored clauses at the root. *)
  S.add_clause s [ L.pos a ];
  S.simplify s;
  let st = S.stats s in
  Alcotest.(check int) "root-satisfied clauses collected" 2 st.S.removed;
  Alcotest.(check int) "no live problem clauses" 0 st.S.live_clauses;
  Alcotest.(check bool) "at least one compaction" true (st.S.compactions >= 1);
  (* The instance is untouched semantically. *)
  Alcotest.(check bool) "still sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "unit survives" true (S.value s a);
  Alcotest.(check bool) "idempotent" true
    (S.simplify s;
     (S.stats s).S.removed = 2)

(* ------------------------------------------------------------------ *)
(* Decision focus                                                      *)
(* ------------------------------------------------------------------ *)

let test_focus_decisions () =
  let s = S.create () in
  let x = S.new_var s in
  let y = S.new_var s in
  let z = S.new_var s in
  (* z <-> y is a conservative extension: any assignment of [x] (the
     focus) extends to a model, so a focused Sat needs no decision
     outside the focus. *)
  S.add_clause s [ L.neg y; L.pos z ];
  S.add_clause s [ L.pos y; L.neg z ];
  S.focus_decisions s [ x ];
  Alcotest.(check bool) "sat under focus" true (S.solve s = S.Sat);
  Alcotest.(check bool) "only the focused variable decided" true
    ((S.stats s).S.decisions <= 1);
  (* Unsat answers under focus are exact. *)
  S.add_clause s [ L.pos x ];
  Alcotest.(check bool) "failed assumption under focus" true
    (S.solve ~assumptions:[ L.neg x ] s = S.Unsat);
  (* Widening the focus restores the variables the focused search popped
     off the order heap: this instance is unsatisfiable but has no unit,
     so refuting it *requires* branching on y or z — a heap that lost
     them would answer Sat. *)
  S.focus_decisions s [ x; y; z ];
  S.add_clause s [ L.pos y; L.pos z ];
  S.add_clause s [ L.neg y; L.neg z ];
  Alcotest.(check bool) "widened search reaches every focused variable" true
    (S.solve s = S.Unsat)

(* ------------------------------------------------------------------ *)
(* Restart policy                                                      *)
(* ------------------------------------------------------------------ *)

let test_restarts_within_one_call () =
  let s = S.create () in
  php s 7 6;
  Alcotest.(check bool) "php(7,6) unsat" true (S.solve s = S.Unsat);
  let st = S.stats s in
  Alcotest.(check bool) "enough conflicts to restart" true
    (st.S.conflicts > 100);
  Alcotest.(check bool) "restarts happened" true (st.S.restarts >= 1)

let test_restarts_accumulate_across_calls () =
  (* Many short queries, each cheaper than the first Luby budget: a
     per-call restart counter would stay 0 forever; the persistent
     policy restarts once the conflicts add up. *)
  let s = S.create () in
  let restarts = ref 0 in
  for _ = 1 to 40 do
    let act = S.new_var s in
    php ~extra:(L.neg act) s 4 3;
    Alcotest.(check bool) "guarded php(4,3) unsat" true
      (S.solve ~assumptions:[ L.pos act ] s = S.Unsat);
    S.add_clause s [ L.neg act ];
    restarts := (S.stats s).S.restarts
  done;
  let st = S.stats s in
  Alcotest.(check bool) "conflicts accumulated past the first budget" true
    (st.S.conflicts > 100);
  Alcotest.(check bool) "cross-call restarts" true (!restarts >= 1)

(* ------------------------------------------------------------------ *)
(* Session GC differential                                             *)
(* ------------------------------------------------------------------ *)

let opts ?(incremental = true) ~certify seed =
  {
    Sweep_options.default with
    Sweep_options.seed;
    guided_iterations = 4;
    incremental;
    certify;
  }

let partition sw net =
  let parts = ref [] in
  N.iter_gates net (fun id -> parts := Sweeper.representative sw id :: !parts);
  !parts

let sweep o net =
  let sw = Sweeper.create o net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided o sw);
  let s = Sweeper.sat_sweep o sw in
  (sw, s)

let test_gc_differential_stacked () =
  (* The collecting session vs a fresh solver per pair on a stacked suite
     benchmark, >= 3 seeds: identical final merge partitions and
     proved-merge counts; GC actually collected something. *)
  let net = Suite.stacked_lut_network "apex2" in
  List.iter
    (fun seed ->
      let sw_gc, s_gc = sweep (opts ~certify:false seed) net in
      let sw_off, s_off =
        sweep (opts ~incremental:false ~certify:false seed) net
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: identical partitions" seed)
        true
        (partition sw_gc net = partition sw_off net);
      (* Counter-example sequences (and so disproof call counts) may
         differ — different models — but the number of proved merges is
         [gates - true classes] either way. *)
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same proved merges" seed)
        s_off.Sweeper.proved s_gc.Sweeper.proved;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: GC collected clauses" seed)
        true (s_gc.Sweeper.deleted > 0))
    [ 2; 5; 13 ]

let test_gc_certificate_valid () =
  (* A GC-enabled certifying sweep on a stacked suite still yields a
     certificate the independent checker accepts: the deletions the GC
     performs never reach the per-query certificate slices unsoundly. *)
  let net = Suite.stacked_lut_network "apex2" in
  let sw, s = sweep (opts ~certify:true 7) net in
  Alcotest.(check bool) "GC fired during the certified sweep" true
    (s.Sweeper.deleted > 0);
  let report = Cert.check (Sweeper.certificate sw) in
  let codes =
    List.sort_uniq compare
      (List.map (fun d -> d.Diagnostic.code) report.Cert.diags)
  in
  Alcotest.(check (list string)) "no diagnostics" [] codes;
  Alcotest.(check bool) "certificate valid" true report.Cert.valid;
  Alcotest.(check bool) "merges certified" true (report.Cert.merges > 0)

let () =
  Alcotest.run "gc"
    [
      ( "solver",
        [
          Alcotest.test_case "remove_group retracts" `Quick
            test_remove_group_retracts;
          Alcotest.test_case "retraction logs no proof events" `Quick
            test_remove_group_logs_no_events;
          Alcotest.test_case "simplify" `Quick
            test_simplify_collects_root_satisfied;
          Alcotest.test_case "decision focus" `Quick test_focus_decisions;
          Alcotest.test_case "restarts in one call" `Quick
            test_restarts_within_one_call;
          Alcotest.test_case "restarts across calls" `Quick
            test_restarts_accumulate_across_calls;
        ] );
      ( "session",
        [
          Alcotest.test_case "stacked differential" `Slow
            test_gc_differential_stacked;
          Alcotest.test_case "certificate with GC" `Slow
            test_gc_certificate_valid;
        ] );
    ]
