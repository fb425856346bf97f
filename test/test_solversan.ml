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
        (List.hd (String.split_on_char ':' msg))

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
(* Clause arena: random incremental churn against brute force          *)
(* ------------------------------------------------------------------ *)

(* A clause over at most 12 variables as two bit masks: the variables
   occurring positively and those occurring negatively. *)
type mclause = { pos : int; neg : int }

let mask_of lits =
  List.fold_left
    (fun m l ->
      if L.sign l then { m with neg = m.neg lor (1 lsl L.var l) }
      else { m with pos = m.pos lor (1 lsl L.var l) })
    { pos = 0; neg = 0 } lits

let satisfies x c = x land c.pos <> 0 || lnot x land c.neg <> 0

(* The OR of all models of [cs] over [nv] variables, and of their
   complements: variable [v] takes both values in some model iff bit
   [v] is set in both. [None] when [cs] is unsatisfiable. *)
let model_cover nv cs =
  let ones = ref 0 and zeros = ref 0 and any = ref false in
  for x = 0 to (1 lsl nv) - 1 do
    if List.for_all (satisfies x) cs then begin
      any := true;
      ones := !ones lor x;
      zeros := !zeros lor lnot x
    end
  done;
  if !any then Some (!ones, !zeros) else None

let satisfiable nv cs = model_cover nv cs <> None
let units lits = List.map (fun l -> mask_of [ l ]) lits

(* Base variables 0..7 carry the random clauses; variables 8..11
   activate groups 8..11, whose clauses all contain the negated
   activation literal, as the sweep session guards its retractable
   clauses. A retracted group's activation literal is never assumed
   again, so the clauses ever added answer every query exactly: the
   solver's learnt clauses and root facts follow from them, and the
   retracted clauses are satisfied by their free activation variable.

   With [~shadow:true] a clause is only added while no variable is
   forced by the clauses ever added (no backbone), so the root
   assignment stays empty, [simplify] never deletes a satisfied clause,
   and [remove_group g] must return exactly the number of clauses added
   under [g] — the shadow count, checked after every compaction.

   Every step runs the full audit; the sampled audit runs at every
   conflict. Returns the solver for coverage checks. *)
let arena_churn ~shadow ~steps seed =
  let rng = Random.State.make [| seed |] in
  let nb = 8 and ng = 4 in
  let nv = nb + ng in
  let s = S.create () in
  for _ = 1 to nv do
    ignore (S.new_var s)
  done;
  S.set_audit s ~every:1;
  let all = ref [] in
  let stored = Array.make nv 0 in
  let live = Array.make nv false and next_group = ref nb in
  let live_groups () = List.filter (fun g -> live.(g)) (List.init nv Fun.id) in
  let base_lits k =
    let vars = Array.init nb Fun.id in
    for i = nb - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = vars.(i) in
      vars.(i) <- vars.(j);
      vars.(j) <- t
    done;
    List.init k (fun i -> L.make vars.(i) (Random.State.bool rng))
  in
  (* Add [lits] (under [group]) unless it would make the clauses ever
     added unsatisfiable or, in shadow mode, force a variable. *)
  let add ?group lits =
    let cs = mask_of lits :: !all in
    let keep =
      match model_cover nv cs with
      | None -> false
      | Some (ones, zeros) ->
          let full = (1 lsl nv) - 1 in
          (not shadow) || (ones = full && zeros land full = full)
    in
    if keep then begin
      all := cs;
      S.add_clause ?group s lits;
      Option.iter (fun g -> stored.(g) <- stored.(g) + 1) group
    end
  in
  let retract g =
    let removed = S.remove_group s g in
    live.(g) <- false;
    if shadow then
      Alcotest.(check int)
        (Printf.sprintf "seed %d: remove_group %d" seed g)
        stored.(g) removed
    else if removed > stored.(g) then
      Alcotest.failf "seed %d: remove_group %d removed %d of %d clauses" seed g
        removed stored.(g)
  in
  let query () =
    let acts =
      List.filter (fun _ -> Random.State.int rng 4 > 0) (live_groups ())
    in
    let assumptions =
      List.map L.pos acts @ base_lits (Random.State.int rng 3)
    in
    let expect = satisfiable nv (units assumptions @ !all) in
    match S.solve ~assumptions s with
    | S.Sat ->
        if not expect then Alcotest.failf "seed %d: Sat on an unsat query" seed;
        let x = ref 0 in
        for v = 0 to nv - 1 do
          if S.value s v then x := !x lor (1 lsl v)
        done;
        (* Clauses of retracted groups left the solver; the model need
           only satisfy the live ones (each holds its activation). *)
        List.iter
          (fun l ->
            if S.value s (L.var l) = L.sign l then
              Alcotest.failf "seed %d: model breaks an assumption" seed)
          assumptions;
        List.iter
          (fun c ->
            let retracted =
              List.exists (fun g -> c.neg land (1 lsl g) <> 0 && not live.(g))
                (List.init ng (fun i -> nb + i))
            in
            if (not retracted) && not (satisfies !x c) then
              Alcotest.failf "seed %d: model breaks a live clause" seed)
          !all
    | S.Unsat ->
        if expect then Alcotest.failf "seed %d: Unsat on a sat query" seed;
        let failed = S.failed_assumptions s in
        if not (List.for_all (fun l -> List.mem l assumptions) failed) then
          Alcotest.failf "seed %d: failed assumption not assumed" seed;
        if satisfiable nv (units failed @ !all) then
          Alcotest.failf "seed %d: failed assumptions are satisfiable" seed
  in
  for _ = 1 to steps do
    (match Random.State.int rng 100 with
    | r when r < 30 ->
        let k =
          if (not shadow) && r = 0 then 1 else 2 + Random.State.int rng 2
        in
        add (base_lits k)
    | r when r < 50 ->
        if !next_group < nv && (live_groups () = [] || r < 35) then begin
          live.(!next_group) <- true;
          incr next_group
        end;
        (match live_groups () with
        | [] -> ()
        | gs ->
            let g = List.nth gs (Random.State.int rng (List.length gs)) in
            add ~group:g (L.neg g :: base_lits (1 + Random.State.int rng 3)))
    | r when r < 55 -> (
        match live_groups () with
        | [] -> ()
        | gs -> retract (List.nth gs (Random.State.int rng (List.length gs))))
    | r when r < 62 ->
        S.simplify s;
        if shadow then (
          match live_groups () with [] -> () | g :: _ -> retract g)
    | _ -> query ());
    S.audit s
  done;
  s

let sum_stats f solvers =
  List.fold_left (fun n s -> n + f (S.stats s)) 0 solvers

let test_arena_churn () =
  let solvers =
    List.init 40 (fun seed -> arena_churn ~shadow:false ~steps:400 seed)
  in
  (* The history must reach compaction and learning. *)
  Alcotest.(check bool) "simplify compactions" true
    (sum_stats (fun st -> st.S.compactions) solvers > 0);
  Alcotest.(check bool) "learnts" true
    (sum_stats (fun st -> st.S.learned) solvers > 0)

(* The churn above stays far below [reduce_db]'s first conflict
   threshold: twelve variables run out of fresh conflicts long before.
   A pigeonhole session reaches it. Pigeon [i]'s clause is guarded by its
   own activation variable and registered as group [i]; queries assume
   every live activation under a small conflict budget and resume until
   they answer, with the full audit after every call, a forced
   [simplify] after every other one and the sampled audit at every
   conflict — so each compaction that [reduce_db] runs mid-search, with
   reasons on the trail, is followed by a check of every reason. No
   literal is ever forced (each activation can be false), so retracting
   a pigeon removes exactly its one clause. *)
let test_arena_reduce () =
  let holes = 7 in
  let pigeons = holes + 1 in
  let s = S.create () in
  S.set_audit s ~every:1;
  let act = Array.init pigeons (fun _ -> S.new_var s) in
  let x =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> S.new_var s))
  in
  let clauses = ref [] in
  let add ?group c =
    clauses := (group, c) :: !clauses;
    S.add_clause ?group s c
  in
  for i = 0 to pigeons - 1 do
    add ~group:i (n act.(i) :: Array.to_list (Array.map p x.(i)))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for j = i + 1 to pigeons - 1 do
        add [ n x.(i).(h); n x.(j).(h) ]
      done
    done
  done;
  let calls = ref 0 in
  let rec run assumptions =
    let r =
      S.solve_limited ~assumptions ~limits:(S.Limits.conflicts 150) s
    in
    incr calls;
    S.audit s;
    if !calls mod 2 = 0 then begin
      S.simplify s;
      S.audit s
    end;
    match r with S.LUnknown -> run assumptions | r -> r
  in
  let all = Array.to_list (Array.map p act) in
  Alcotest.(check bool) "php unsat" true (run all = S.LUnsat);
  let failed = S.failed_assumptions s in
  Alcotest.(check bool) "failed assumptions assumed" true
    (failed <> [] && List.for_all (fun l -> List.mem l all) failed);
  let st = S.stats s in
  Alcotest.(check bool) "reductions" true (st.S.reductions > 0);
  Alcotest.(check bool) "learnts deleted" true (st.S.deleted > 0);
  Alcotest.(check int) "retract pigeon 0" 1 (S.remove_group s 0);
  S.audit s;
  Alcotest.(check bool) "one pigeon fewer is sat" true
    (run (List.tl all) = S.LSat);
  List.iter
    (fun (group, c) ->
      let holds l = S.value s (L.var l) <> L.sign l in
      if group <> Some 0 && not (List.exists holds c) then
        Alcotest.fail "model breaks a live clause")
    !clauses

let test_arena_shadow_groups () =
  let solvers =
    List.init 40 (fun seed -> arena_churn ~shadow:true ~steps:400 (1000 + seed))
  in
  Alcotest.(check bool) "groups retracted" true
    (sum_stats (fun st -> st.S.removed) solvers > 0)

(* The corruption matrix again, on an arena that has been through
   retraction, compaction and learning: every corruption still trips its
   code once clauses have moved. *)
let churned_solver () =
  let s = S.create () in
  let v = Array.init 8 (fun _ -> S.new_var s) in
  S.add_clause ~group:0 s [ p v.(4); p v.(5); p v.(6) ];
  S.add_clause s [ n v.(0); p v.(1) ];
  S.add_clause s [ p v.(0) ];
  S.add_clause ~group:1 s [ p v.(2); p v.(3); n v.(4) ];
  S.add_clause s [ p v.(2); p v.(5); n v.(7) ];
  S.add_clause s [ n v.(2); n v.(5) ];
  S.add_clause s [ n v.(6); p v.(7); p v.(3) ];
  Alcotest.(check int) "retract group 0" 1 (S.remove_group s 0);
  S.simplify s;
  Alcotest.(check bool) "sat" true
    (S.solve ~assumptions:[ p v.(4); p v.(6) ] s = S.Sat);
  Alcotest.(check bool) "compacted" true ((S.stats s).S.compactions > 0);
  S.audit s;
  s

let test_corruptions_after_compaction () =
  List.iter
    (fun (code, kind) ->
      let s = churned_solver () in
      S.corrupt s kind;
      expect_violation code (fun () -> S.audit s))
    [
      ("R007", S.Drop_watch);
      ("R007", S.Foreign_blocker);
      ("R008", S.Scramble_reason);
      ("R009", S.Break_heap);
      ("R011", S.Leak_detached);
      ("R012", S.Regress_stats);
      ("R013", S.Skew_gauge);
    ];
  (* The fence needs a focused query whose cone does not extend. *)
  let s = churned_solver () in
  let f0 = S.new_var s and f1 = S.new_var s and x = S.new_var s in
  S.add_clause s [ n f0; p x ];
  S.add_clause s [ n x; p f1 ];
  S.add_clause s [ n f0; n f1 ];
  S.focus_decisions s [ f0; f1 ];
  S.set_audit s ~every:1;
  S.corrupt s S.Break_fence;
  expect_violation "R010" (fun () -> S.solve ~assumptions:[ p f0 ] s)

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
      ( "clause-arena",
        [
          Alcotest.test_case "incremental churn vs brute force" `Quick
            test_arena_churn;
          Alcotest.test_case "remove_group shadow counts" `Quick
            test_arena_shadow_groups;
          Alcotest.test_case "pigeonhole reductions, audited" `Quick
            test_arena_reduce;
          Alcotest.test_case "corruptions after compaction" `Quick
            test_corruptions_after_compaction;
        ] );
      ( "clean-runs",
        [
          Alcotest.test_case "42 suites x 3 seeds, armed" `Slow
            test_no_false_positives;
          Alcotest.test_case "verdict parity" `Quick test_audit_parity;
        ] );
    ]
