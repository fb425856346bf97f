(* SolverSan: the solver-state invariant sanitizer (R007..R013) and the
   DRUP proof-stream lint tier (D001..D009). The corruption matrix seeds
   one defect per code and demands exactly that code; the clean-run
   tests sweep the whole suite with the sanitizer armed and demand
   silence — zero false positives is what makes the codes meaningful. *)

module L = Simgen_sat.Literal
module S = Simgen_sat.Solver
module Drup = Simgen_sat.Drup
module Proof_lint = Simgen_check.Proof_lint
module Diagnostic = Simgen_check.Diagnostic
module Runtime_check = Simgen_base.Runtime_check
module Suite = Simgen_benchgen.Suite
module N = Simgen_network.Network
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Cert = Simgen_check.Certificate

let p v = L.pos v
let n v = L.neg v

(* ------------------------------------------------------------------ *)
(* DRUP text parser: edge cases                                        *)
(* ------------------------------------------------------------------ *)

(* Compare event streams through the canonical printer: two streams are
   equal iff they print to the same DRUP text. *)
let drup_text = Alcotest.testable Fmt.Dump.string ( = )

let check_events msg expected got =
  Alcotest.check drup_text msg
    (Drup.to_dimacs_proof expected)
    (Drup.to_dimacs_proof got)

let test_parse_basic () =
  let got = Drup.parse_string "1 2 0\nd 1 2 0\n0\n" in
  check_events "basic"
    [
      S.Learn [| L.of_dimacs 1; L.of_dimacs 2 |];
      S.Delete [| L.of_dimacs 1; L.of_dimacs 2 |];
      S.Learn [||];
    ]
    got

let test_parse_comments_blank_crlf () =
  let got =
    Drup.parse_string "c header\r\n\r\n  1 -2 0\r\nc mid\n\nd -2 1 0\r\n"
  in
  check_events "comments/blank/CRLF"
    [
      S.Learn [| L.of_dimacs 1; L.of_dimacs (-2) |];
      S.Delete [| L.of_dimacs (-2); L.of_dimacs 1 |];
    ]
    got

let test_parse_multi_clause_line () =
  (* drat-trim accepts several clauses per line; so do we. *)
  let got = Drup.parse_string "1 0 2 0 d 2 0\n" in
  check_events "three events on one line"
    [
      S.Learn [| L.of_dimacs 1 |];
      S.Learn [| L.of_dimacs 2 |];
      S.Delete [| L.of_dimacs 2 |];
    ]
    got

let test_parse_spanning_clause () =
  let got = Drup.parse_string "1\n2\n0\n" in
  check_events "clause spans lines"
    [ S.Learn [| L.of_dimacs 1; L.of_dimacs 2 |] ]
    got

let test_parse_delete_empty () =
  let got = Drup.parse_string "d 0\n" in
  check_events "d 0" [ S.Delete [||] ] got

let expect_parse_error text =
  match Drup.parse_string text with
  | events ->
      Alcotest.failf "expected Parse_error, got %d event(s)"
        (List.length events)
  | exception Drup.Parse_error _ -> ()

let test_parse_errors () =
  expect_parse_error "1 2\n";
  (* missing terminating 0 *)
  expect_parse_error "1 d 2 0\n";
  (* 'd' inside a clause *)
  expect_parse_error "1 x 0\n" (* non-integer token *)

(* ------------------------------------------------------------------ *)
(* Round-trip over genuine proofs: every suite benchmark               *)
(* ------------------------------------------------------------------ *)

let certified_sweep ?(seed = 7) ?(guided_iterations = 2) name =
  let net = Suite.lut_network name in
  let o =
    {
      Sweep_options.default with
      Sweep_options.seed;
      guided_iterations;
      certify = true;
    }
  in
  let sw = Sweeper.create o net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided o sw);
  ignore (Sweeper.sat_sweep o sw);
  Sweeper.certificate sw

(* to_dimacs_proof -> parse_string must reproduce the event stream of
   every genuine proof slice, and the structural lint must stay silent
   on all of them (session slices delete clauses learned in earlier
   slices — exactly the case the structural regime must not flag). *)
let test_roundtrip_suites () =
  List.iter
    (fun name ->
      let cert = certified_sweep name in
      Array.iter
        (function
          | Cert.Session { events; _ } | Cert.Fresh { events; _ } ->
              let text = Drup.to_dimacs_proof events in
              let back = Drup.parse_string text in
              check_events (name ^ ": roundtrip") events back;
              Alcotest.(check int)
                (name ^ ": event count")
                (List.length events) (List.length back);
              let diags = Proof_lint.run events in
              Alcotest.(check int)
                (name ^ ": structural lint clean")
                0 (List.length diags)
          | Cert.Rebuild -> ())
        cert.Cert.queries)
    Suite.names

(* ------------------------------------------------------------------ *)
(* Proof-stream corruption matrix: one D code per seeded defect        *)
(* ------------------------------------------------------------------ *)

let codes diags =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) diags)

let expect_codes msg expected diags =
  Alcotest.(check (list string)) msg expected (codes diags)

(* An unsatisfiable 2-variable formula with a genuine RUP refutation,
   the backdrop for the semantic (formula-aware) checks. *)
let formula2 = [ [ p 0; p 1 ]; [ n 0; p 1 ]; [ p 0; n 1 ]; [ n 0; n 1 ] ]

let test_d001_delete_never_added () =
  expect_codes "D001" [ "D001" ]
    (Proof_lint.run ~formula:formula2 [ S.Delete [| p 5 |] ])

let test_d002_delete_exhausted () =
  expect_codes "D002" [ "D002" ]
    (Proof_lint.run ~formula:formula2
       [ S.Delete [| p 0; p 1 |]; S.Delete [| p 0; p 1 |] ])

let test_d003_learn_after_empty () =
  expect_codes "D003" [ "D003" ]
    (Proof_lint.run [ S.Learn [||]; S.Learn [| p 1 |] ])

let test_d004_tautology () =
  expect_codes "D004" [ "D004" ] (Proof_lint.run [ S.Learn [| p 0; n 0 |] ])

let test_d005_duplicate_literal () =
  expect_codes "D005" [ "D005" ]
    (Proof_lint.run [ S.Learn [| p 0; p 0; p 1 |] ])

let test_d006_delete_then_use () =
  (* [p 1] is RUP only through (~x0 \/ x1): deleting that clause first
     makes the step derivable solely from the graveyard. *)
  expect_codes "D006" [ "D006" ]
    (Proof_lint.run ~formula:formula2
       [ S.Delete [| n 0; p 1 |]; S.Learn [| p 1 |] ])

let test_d007_group_removal_mismatch () =
  let expected = [ [ p 0; p 1 ]; [ n 0; p 1 ] ] in
  (* One delete outside the membership, one member never deleted. *)
  let diags =
    Proof_lint.lint_group_removal ~expected
      [ S.Delete [| p 0; p 1 |]; S.Delete [| p 5 |] ]
  in
  expect_codes "D007" [ "D007" ] diags;
  Alcotest.(check int) "both directions" 2 (List.length diags)

let test_d008_unsat_without_empty () =
  expect_codes "D008" [ "D008" ]
    (Proof_lint.run ~expect_unsat:true [ S.Learn [| p 1 |] ]);
  expect_codes "no D008 when derived" []
    (Proof_lint.run ~expect_unsat:true [ S.Learn [||] ])

let test_d009_trim_anomaly () =
  (* A genuine trim bail-out: the step is not RUP, so the forward pass
     reports it and returns the proof untrimmed. *)
  let anomalies = ref [] in
  let proof = [ S.Learn [| p 1 |] ] in
  let trimmed =
    Drup.trim ~on_anomaly:(fun a -> anomalies := a :: !anomalies)
      [ [ p 0 ] ]
      proof
  in
  Alcotest.(check bool) "proof returned untrimmed" true (trimmed == proof);
  (match !anomalies with
  | [ Drup.Non_rup_step 0 ] -> ()
  | _ -> Alcotest.fail "expected [Non_rup_step 0]");
  expect_codes "D009 (non-RUP step)" [ "D009" ]
    (List.map Proof_lint.trim_anomaly !anomalies);
  expect_codes "D009 (underivable goal)" [ "D009" ]
    [ Proof_lint.trim_anomaly Drup.Underivable_goal ]

(* A genuine refutation of [formula2] is clean in both regimes. *)
let test_proof_lint_clean () =
  let proof = [ S.Learn [| p 1 |]; S.Learn [||] ] in
  expect_codes "structural clean" [] (Proof_lint.run ~expect_unsat:true proof);
  expect_codes "semantic clean" []
    (Proof_lint.run ~formula:formula2 ~expect_unsat:true proof)

(* ------------------------------------------------------------------ *)
(* Solver corruption matrix: one R code per seeded corruption          *)
(* ------------------------------------------------------------------ *)

let expect_violation code f =
  match f () with
  | _ -> Alcotest.failf "expected %s violation" code
  | exception Runtime_check.Violation msg ->
      Alcotest.(check string)
        (code ^ " code")
        code
        (Runtime_check.violation_code msg)

(* A solver with an implication on the trail: whatever sign v0 is
   decided, v1 is implied through one of the two binary clauses. *)
let implication_solver () =
  let s = S.create () in
  let v = Array.init 3 (fun _ -> S.new_var s) in
  S.add_clause s [ p v.(0); p v.(1) ];
  S.add_clause s [ n v.(0); p v.(1) ];
  S.add_clause s [ p v.(1); p v.(2) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  s

let test_r007_drop_watch () =
  let s = implication_solver () in
  S.audit s;
  S.corrupt s S.Drop_watch;
  expect_violation "R007" (fun () -> S.audit s)

let test_r007_foreign_blocker () =
  (* A blocker outside its clause could settle a visit on a literal the
     clause does not contain: the audit must refuse it. *)
  let s = implication_solver () in
  S.audit s;
  S.corrupt s S.Foreign_blocker;
  expect_violation "R007" (fun () -> S.audit s)

let test_r008_scramble_reason () =
  (* [solve] backtracks to the root before returning, so only root-level
     assignments keep their reasons: imply v1 at level 0 through the
     unit v0, and keep an unrelated binary clause around as the scramble
     target. *)
  let s = S.create () in
  let v = Array.init 4 (fun _ -> S.new_var s) in
  S.add_clause s [ p v.(0) ];
  S.add_clause s [ n v.(0); p v.(1) ];
  S.add_clause s [ p v.(2); p v.(3) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  S.audit s;
  S.corrupt s S.Scramble_reason;
  expect_violation "R008" (fun () -> S.audit s)

let test_r009_break_heap () =
  (* Unsolved: every variable still sits in the decision heap. *)
  let s = S.create () in
  let v = Array.init 4 (fun _ -> S.new_var s) in
  S.add_clause s [ p v.(0); p v.(1) ];
  S.add_clause s [ p v.(2); p v.(3) ];
  S.audit s;
  S.corrupt s S.Break_heap;
  expect_violation "R009" (fun () -> S.audit s)

let test_r010_break_fence () =
  (* Focused query whose cones do NOT conservatively extend: with the
     fence disabled, propagation assigns the out-of-focus x above the
     root and the per-conflict sample must catch it. With the fence
     intact the same query completes silently (the clean half below). *)
  let run ~corrupted =
    let s = S.create () in
    let f0 = S.new_var s in
    let f1 = S.new_var s in
    let x = S.new_var s in
    S.add_clause s [ n f0; p x ];
    S.add_clause s [ n x; p f1 ];
    S.add_clause s [ n f0; n f1 ];
    S.focus_decisions s [ f0; f1 ];
    S.set_audit s ~every:1;
    if corrupted then S.corrupt s S.Break_fence;
    S.solve ~assumptions:[ p f0 ] s
  in
  expect_violation "R010" (fun () -> run ~corrupted:true);
  (match run ~corrupted:false with
  | S.Sat | S.Unsat -> ()
  | exception Runtime_check.Violation msg ->
      Alcotest.failf "clean focused solve tripped the sanitizer: %s" msg)

let test_r011_leak_detached () =
  let s = implication_solver () in
  S.audit s;
  S.corrupt s S.Leak_detached;
  expect_violation "R011" (fun () -> S.audit s)

let test_r012_regress_stats () =
  let s = implication_solver () in
  S.audit s;
  (* arms the counter shadow *)
  S.corrupt s S.Regress_stats;
  expect_violation "R012" (fun () -> S.audit s)

let test_r013_skew_gauge () =
  let s = implication_solver () in
  S.audit s;
  S.corrupt s S.Skew_gauge;
  expect_violation "R013" (fun () -> S.audit s)

let test_corrupt_needs_target () =
  let s = S.create () in
  (match S.corrupt s S.Drop_watch with
  | () -> Alcotest.fail "Drop_watch on an empty solver must refuse"
  | exception Invalid_argument _ -> ());
  (match S.corrupt s S.Foreign_blocker with
  | () -> Alcotest.fail "Foreign_blocker on an empty solver must refuse"
  | exception Invalid_argument _ -> ());
  match S.corrupt s S.Break_heap with
  | () -> Alcotest.fail "Break_heap on an empty heap must refuse"
  | exception Invalid_argument _ -> ()

let test_audit_sampling () =
  let s = S.create () in
  Alcotest.(check bool) "off by default" false (S.audit_sampling s);
  S.set_audit s ~every:16;
  Alcotest.(check bool) "armed" true (S.audit_sampling s);
  S.set_audit s ~every:0;
  Alcotest.(check bool) "disarmed" false (S.audit_sampling s)

(* ------------------------------------------------------------------ *)
(* Clean runs: the armed sanitizer must stay silent on real sweeps     *)
(* ------------------------------------------------------------------ *)

(* Every suite benchmark, three seeds, full flow with the sampled
   sanitizer armed through Sweep_options.solver_audit. Any invariant
   violation escapes as Runtime_check.Violation and fails the test:
   this is the zero-false-positive matrix the R codes are gated on.
   Verdict parity with an unarmed sweep is asserted on a spot-check
   bench (the solver-audit bench gate covers the stacked subset). *)
let test_no_false_positives () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let net = Suite.lut_network name in
          let o =
            {
              Sweep_options.default with
              Sweep_options.seed;
              guided_iterations = 1;
              solver_audit = true;
            }
          in
          let sw = Sweeper.create o net in
          Sweeper.random_round sw;
          ignore (Sweeper.run_guided o sw);
          ignore (Sweeper.sat_sweep o sw))
        [ 1; 2; 3 ])
    Suite.names

let test_audit_parity () =
  let partition ~solver_audit =
    let net = Suite.lut_network "dec" in
    let o =
      {
        Sweep_options.default with
        Sweep_options.seed = 7;
        guided_iterations = 2;
        solver_audit;
      }
    in
    let sw = Sweeper.create o net in
    Sweeper.random_round sw;
    ignore (Sweeper.run_guided o sw);
    ignore (Sweeper.sat_sweep o sw);
    List.init (N.num_nodes net) (Sweeper.representative sw)
  in
  Alcotest.(check (list int))
    "identical merge partition" (partition ~solver_audit:false)
    (partition ~solver_audit:true)

let () =
  Alcotest.run "solversan"
    [
      ( "drup-parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "comments/blank/CRLF" `Quick
            test_parse_comments_blank_crlf;
          Alcotest.test_case "multi-clause line" `Quick
            test_parse_multi_clause_line;
          Alcotest.test_case "spanning clause" `Quick
            test_parse_spanning_clause;
          Alcotest.test_case "d 0" `Quick test_parse_delete_empty;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "suite round-trips" `Slow test_roundtrip_suites;
        ] );
      ( "proof-lint",
        [
          Alcotest.test_case "D001 never added" `Quick
            test_d001_delete_never_added;
          Alcotest.test_case "D002 exhausted" `Quick test_d002_delete_exhausted;
          Alcotest.test_case "D003 learn after empty" `Quick
            test_d003_learn_after_empty;
          Alcotest.test_case "D004 tautology" `Quick test_d004_tautology;
          Alcotest.test_case "D005 duplicate" `Quick
            test_d005_duplicate_literal;
          Alcotest.test_case "D006 delete-then-use" `Quick
            test_d006_delete_then_use;
          Alcotest.test_case "D007 group mismatch" `Quick
            test_d007_group_removal_mismatch;
          Alcotest.test_case "D008 unsat unproved" `Quick
            test_d008_unsat_without_empty;
          Alcotest.test_case "D009 trim anomaly" `Quick test_d009_trim_anomaly;
          Alcotest.test_case "clean refutation" `Quick test_proof_lint_clean;
        ] );
      ( "solver-sanitizer",
        [
          Alcotest.test_case "R007 drop watch" `Quick test_r007_drop_watch;
          Alcotest.test_case "R007 foreign blocker" `Quick
            test_r007_foreign_blocker;
          Alcotest.test_case "R008 scramble reason" `Quick
            test_r008_scramble_reason;
          Alcotest.test_case "R009 break heap" `Quick test_r009_break_heap;
          Alcotest.test_case "R010 break fence" `Quick test_r010_break_fence;
          Alcotest.test_case "R011 leak detached" `Quick
            test_r011_leak_detached;
          Alcotest.test_case "R012 regress stats" `Quick
            test_r012_regress_stats;
          Alcotest.test_case "R013 skew gauge" `Quick test_r013_skew_gauge;
          Alcotest.test_case "corrupt refuses no-target" `Quick
            test_corrupt_needs_target;
          Alcotest.test_case "sampling toggle" `Quick test_audit_sampling;
        ] );
      ( "clean-runs",
        [
          Alcotest.test_case "42 suites x 3 seeds, armed" `Slow
            test_no_false_positives;
          Alcotest.test_case "verdict parity" `Quick test_audit_parity;
        ] );
    ]
