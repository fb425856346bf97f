module L = Simgen_sat.Literal
module S = Simgen_sat.Solver
module Tseitin = Simgen_sat.Tseitin
module Dimacs = Simgen_sat.Dimacs
module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng

(* ------------------------------------------------------------------ *)
(* Literal                                                             *)
(* ------------------------------------------------------------------ *)

let test_literal_encoding () =
  Alcotest.(check int) "pos var" 3 (L.var (L.pos 3));
  Alcotest.(check bool) "pos sign" false (L.sign (L.pos 3));
  Alcotest.(check bool) "neg sign" true (L.sign (L.neg 3));
  Alcotest.(check int) "negate" (L.neg 3) (L.negate (L.pos 3));
  Alcotest.(check int) "dimacs pos" 4 (L.to_dimacs (L.pos 3));
  Alcotest.(check int) "dimacs neg" (-4) (L.to_dimacs (L.neg 3));
  Alcotest.(check int) "dimacs roundtrip" (L.neg 6) (L.of_dimacs (-7));
  Alcotest.(check string) "pretty" "~x2" (L.to_string (L.neg 2))

(* ------------------------------------------------------------------ *)
(* Solver: hand-crafted cases                                          *)
(* ------------------------------------------------------------------ *)

let fresh n =
  let s = S.create () in
  let vars = Array.init n (fun _ -> S.new_var s) in
  (s, vars)

let test_empty_problem () =
  let s = S.create () in
  Alcotest.(check bool) "no clauses is sat" true (S.solve s = S.Sat)

let test_unit_propagation () =
  let s, v = fresh 3 in
  S.add_clause s [ L.pos v.(0) ];
  S.add_clause s [ L.neg v.(0); L.pos v.(1) ];
  S.add_clause s [ L.neg v.(1); L.pos v.(2) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "chain forced" true
    (S.value s v.(0) && S.value s v.(1) && S.value s v.(2))

let test_trivial_unsat () =
  let s, v = fresh 1 in
  S.add_clause s [ L.pos v.(0) ];
  S.add_clause s [ L.neg v.(0) ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  (* Remains unsat forever. *)
  Alcotest.(check bool) "still unsat" true (S.solve s = S.Unsat)

let test_empty_clause () =
  let s, _ = fresh 1 in
  S.add_clause s [];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_tautological_clause_ignored () =
  let s, v = fresh 2 in
  S.add_clause s [ L.pos v.(0); L.neg v.(0) ];
  S.add_clause s [ L.pos v.(1) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v1 true" true (S.value s v.(1))

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT requiring real search. *)
  let s = S.create () in
  let x = Array.init 3 (fun _ -> Array.init 2 (fun _ -> S.new_var s)) in
  for p = 0 to 2 do
    S.add_clause s [ L.pos x.(p).(0); L.pos x.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        S.add_clause s [ L.neg x.(p1).(h); L.neg x.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(3,2) unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "had conflicts" true ((S.stats s).S.conflicts > 0)

let test_php_5_4 () =
  let s = S.create () in
  let n = 5 and m = 4 in
  let x = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for p = 0 to n - 1 do
    S.add_clause s (List.init m (fun h -> L.pos x.(p).(h)))
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        S.add_clause s [ L.neg x.(p1).(h); L.neg x.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(5,4) unsat" true (S.solve s = S.Unsat)

let test_statistics_populated () =
  let s, v = fresh 6 in
  for i = 0 to 4 do
    S.add_clause s [ L.pos v.(i); L.pos v.(i + 1) ];
    S.add_clause s [ L.neg v.(i); L.neg v.(i + 1) ]
  done;
  ignore (S.solve s);
  let st = S.stats s in
  Alcotest.(check bool) "decisions counted" true (st.S.decisions > 0);
  Alcotest.(check bool) "propagations counted" true (st.S.propagations > 0)

let test_stats_snapshot () =
  let s, v = fresh 4 in
  S.add_clause s [ L.pos v.(0); L.pos v.(1) ];
  S.add_clause s [ L.neg v.(0); L.pos v.(2) ];
  let before = S.stats s in
  ignore (S.solve s);
  let after = S.stats s in
  Alcotest.(check int) "pristine solver: no conflicts" 0 before.S.conflicts;
  Alcotest.(check bool) "snapshot is a copy" true
    (before.S.decisions = 0 && after.S.decisions > 0);
  Alcotest.(check bool) "monotone" true
    (after.S.propagations >= before.S.propagations
    && after.S.watch_visits >= before.S.watch_visits);
  Alcotest.(check bool) "a clause is read only on a visit" true
    (after.S.clause_reads <= after.S.watch_visits)

let test_failed_assumptions_chain () =
  (* x -> y, assume x and ~y: both assumptions are in the final conflict. *)
  let s, v = fresh 2 in
  S.add_clause s [ L.neg v.(0); L.pos v.(1) ];
  let r = S.solve ~assumptions:[ L.pos v.(0); L.neg v.(1) ] s in
  Alcotest.(check bool) "unsat under assumptions" true (r = S.Unsat);
  let failed = List.sort compare (S.failed_assumptions s) in
  Alcotest.(check (list int)) "both assumptions relevant"
    (List.sort compare [ L.pos v.(0); L.neg v.(1) ])
    failed;
  (* The failure is assumption-local: the formula itself stays sat. *)
  Alcotest.(check bool) "solver usable afterwards" true (S.solve s = S.Sat)

let test_failed_assumptions_unit () =
  (* Unit clause ~a, assume a: falsified at level 0, reported alone. *)
  let s, v = fresh 2 in
  S.add_clause s [ L.neg v.(0) ];
  S.add_clause s [ L.pos v.(1) ];
  let r = S.solve ~assumptions:[ L.pos v.(1); L.pos v.(0) ] s in
  Alcotest.(check bool) "unsat under assumptions" true (r = S.Unsat);
  Alcotest.(check (list int)) "only the falsified assumption"
    [ L.pos v.(0) ]
    (S.failed_assumptions s)

let test_failed_assumptions_global_unsat () =
  let s, v = fresh 1 in
  S.add_clause s [ L.pos v.(0) ];
  S.add_clause s [ L.neg v.(0) ];
  let r = S.solve ~assumptions:[ L.pos v.(0) ] s in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  Alcotest.(check (list int)) "global unsat blames no assumption" []
    (S.failed_assumptions s)

let test_assumption_guard_retirement () =
  (* The Sat_session miter protocol at solver level: a guarded constraint
     activated by an assumption, then retired by asserting its negation
     at level 0 — after which the formula is sat again and stays so. *)
  let s, v = fresh 3 in
  let act = v.(2) in
  S.add_clause s [ L.neg v.(0) ];
  S.add_clause s [ L.neg act; L.pos v.(0) ];
  Alcotest.(check bool) "guard violated under act" true
    (S.solve ~assumptions:[ L.pos act ] s = S.Unsat);
  Alcotest.(check (list int)) "act is the failed assumption" [ L.pos act ]
    (S.failed_assumptions s);
  S.add_clause s [ L.neg act ];
  Alcotest.(check bool) "sat after retirement" true (S.solve s = S.Sat);
  Alcotest.(check bool) "guard permanently off" true
    (not (S.value s act))

(* ------------------------------------------------------------------ *)
(* Solver: randomized cross-check against brute force                  *)
(* ------------------------------------------------------------------ *)

let brute_force nvars clauses =
  let sat_under m c =
    List.exists
      (fun l ->
        let v = (m lsr L.var l) land 1 = 1 in
        if L.sign l then not v else v)
      c
  in
  let rec go m =
    m < 1 lsl nvars
    && (List.for_all (sat_under m) clauses || go (m + 1))
  in
  go 0

let gen_cnf =
  QCheck2.Gen.(
    bind (int_range 1 9) (fun nvars ->
        bind (int_range 1 40) (fun nclauses ->
            map
              (fun seed ->
                let rng = Rng.create seed in
                let clause _ =
                  List.init
                    (1 + Rng.int rng 4)
                    (fun _ -> L.make (Rng.int rng nvars) (Rng.bool rng))
                in
                (nvars, List.init nclauses clause))
              (int_range 0 1_000_000))))

let prop_solver_correct =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"CDCL agrees with brute force" ~count:500 gen_cnf
       (fun (nvars, clauses) ->
         let s = S.create () in
         for _ = 1 to nvars do
           ignore (S.new_var s)
         done;
         List.iter (S.add_clause s) clauses;
         match S.solve s with
         | S.Unsat -> not (brute_force nvars clauses)
         | S.Sat ->
             (* The model must satisfy every clause. *)
             List.for_all
               (fun c ->
                 List.exists
                   (fun l ->
                     let v = S.value s (L.var l) in
                     if L.sign l then not v else v)
                   c)
               clauses))

let prop_assumptions_correct =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"assumptions behave like unit clauses" ~count:300
       gen_cnf (fun (nvars, clauses) ->
         let rng = Rng.create (Hashtbl.hash clauses) in
         let assumptions =
           List.init (1 + Rng.int rng 3) (fun _ ->
               L.make (Rng.int rng nvars) (Rng.bool rng))
         in
         let s = S.create () in
         for _ = 1 to nvars do
           ignore (S.new_var s)
         done;
         List.iter (S.add_clause s) clauses;
         let with_assumptions = S.solve ~assumptions s in
         let expected =
           brute_force nvars (clauses @ List.map (fun l -> [ l ]) assumptions)
         in
         let reusable = S.solve s in
         (with_assumptions = S.Sat) = expected
         && (reusable = S.Sat) = brute_force nvars clauses))

(* ------------------------------------------------------------------ *)
(* DRUP proofs                                                         *)
(* ------------------------------------------------------------------ *)

module Drup = Simgen_sat.Drup

let php n m =
  (* Pigeonhole clauses: n pigeons, m holes. *)
  let s = S.create () in
  S.enable_proof s;
  let x = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  let clauses = ref [] in
  let add c =
    clauses := c :: !clauses;
    S.add_clause s c
  in
  for p = 0 to n - 1 do
    add (List.init m (fun h -> L.pos x.(p).(h)))
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        add [ L.neg x.(p1).(h); L.neg x.(p2).(h) ]
      done
    done
  done;
  (s, !clauses)

let test_drup_php_proof_valid () =
  let s, clauses = php 4 3 in
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "proof recorded" true (S.proof_events s <> []);
  Alcotest.(check bool) "proof valid" true (Drup.check clauses (S.proof_events s) = Drup.Valid)

let test_drup_sat_proof_incomplete () =
  let s = S.create () in
  S.enable_proof s;
  let v = S.new_var s in
  let w = S.new_var s in
  let clauses = [ [ L.pos v; L.pos w ] ] in
  List.iter (S.add_clause s) clauses;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "no empty clause derived" true
    (Drup.check clauses (S.proof_events s) <> Drup.Valid)

let test_drup_trivial_unsat () =
  let s = S.create () in
  S.enable_proof s;
  let v = S.new_var s in
  let clauses = [ [ L.pos v ]; [ L.neg v ] ] in
  List.iter (S.add_clause s) clauses;
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "proof valid" true
    (Drup.check clauses (S.proof_events s) = Drup.Valid)

let test_drup_rejects_bogus_step () =
  (* A proof asserting an arbitrary unit that does not follow is invalid. *)
  let clauses = [ [ L.pos 0; L.pos 1 ] ] in
  let bogus = [ Simgen_sat.Solver.Learn [| L.pos 0 |] ] in
  (match Drup.check clauses bogus with
   | Drup.Invalid_step 0 -> ()
   | _ -> Alcotest.fail "bogus step accepted");
  (* But a genuine RUP step passes (and the proof is then incomplete). *)
  let ok =
    [ Simgen_sat.Solver.Learn [| L.pos 0; L.pos 1; L.pos 2 |] ]
  in
  Alcotest.(check bool) "weakening accepted, incomplete" true
    (Drup.check clauses ok = Drup.Incomplete)

let prop_drup_random_unsat =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every UNSAT answer carries a valid proof"
       ~count:300 gen_cnf (fun (nvars, clauses) ->
         let s = S.create () in
         S.enable_proof s;
         for _ = 1 to nvars do
           ignore (S.new_var s)
         done;
         List.iter (S.add_clause s) clauses;
         match S.solve s with
         | S.Sat -> true
         | S.Unsat -> Drup.check clauses (S.proof_events s) = Drup.Valid))

let test_drup_dimacs_format () =
  let events =
    [ Simgen_sat.Solver.Learn [| L.pos 0; L.neg 2 |];
      Simgen_sat.Solver.Delete [| L.pos 0; L.neg 2 |];
      Simgen_sat.Solver.Learn [||] ]
  in
  Alcotest.(check string) "drup text" "1 -3 0\nd 1 -3 0\n0\n"
    (Drup.to_dimacs_proof events)

(* ------------------------------------------------------------------ *)
(* Drup.Engine against a list reference                                *)
(* ------------------------------------------------------------------ *)

(* The reference: reverse unit propagation recomputed from scratch over
   clause lists, sharing nothing with [Drup.Engine]. Values per variable:
   0 unset, 1 true, -1 false. *)
module Ref = struct
  let nvars = 16

  let value values l =
    let v = values.(L.var l) in
    if L.sign l then -v else v

  let assign values l = values.(L.var l) <- (if L.sign l then -1 else 1)

  (* Unit propagation to fixpoint; [true] on a conflict. *)
  let propagate values clauses =
    let conflict = ref false and changed = ref true in
    while !changed && not !conflict do
      changed := false;
      List.iter
        (fun c ->
          if (not !conflict) && not (List.exists (fun l -> value values l = 1) c)
          then
            match
              List.sort_uniq compare (List.filter (fun l -> value values l = 0) c)
            with
            | [] -> conflict := true
            | [ u ] ->
                assign values u;
                changed := true
            | _ -> ())
        clauses
    done;
    !conflict

  let rup clauses clause =
    let values = Array.make nvars 0 in
    let tautology = ref false in
    List.iter
      (fun l ->
        if value values l = 1 then tautology := true
        else assign values (L.negate l))
      clause;
    !tautology || propagate values clauses

  (* Drop one copy of [c] (compared as a sorted multiset). *)
  let rec remove c = function
    | [] -> []
    | d :: rest -> if List.sort compare d = c then rest else d :: remove c rest

  let sorted lits = List.sort compare (Array.to_list lits)

  let check formula proof =
    let rec run active i = function
      | [] -> Drup.Incomplete
      | S.Learn lits :: rest ->
          let c = Array.to_list lits in
          if not (rup active c) then Drup.Invalid_step i
          else if c = [] then Drup.Valid
          else run (c :: active) (i + 1) rest
      | S.Delete lits :: rest -> run (remove (sorted lits) active) (i + 1) rest
    in
    run formula 0 proof

  (* The delete-then-use steps: a learn that fails RUP against the active
     clauses but passes once every deleted clause is restored. *)
  let d006 formula proof =
    let rec go active graveyard i = function
      | [] -> []
      | S.Learn lits :: rest ->
          let c = sorted lits in
          let flagged =
            (not (rup active c)) && graveyard <> [] && rup (graveyard @ active) c
          in
          let tail = if c = [] then [] else go (c :: active) graveyard (i + 1) rest in
          if flagged then i :: tail else tail
      | S.Delete lits :: rest ->
          let c = sorted lits in
          if List.exists (fun d -> List.sort compare d = c) active then
            go (remove c active) (c :: graveyard) (i + 1) rest
          else go active graveyard (i + 1) rest
    in
    go formula [] 0 proof
end

(* A seeded formula over 3..10 variables and a proof stream mixing
   resolvents of active clauses (RUP), resolvents that may need a deleted
   clause, random bogus lemmas, deletions of problem and learned clauses,
   and deletions of clauses that imply a root unit. One case in three
   starts from the solver's own proof, when the formula is UNSAT. *)
let drup_case seed =
  let rng = Rng.create seed in
  let nv = 3 + Rng.int rng 8 in
  let lit () = L.make (Rng.int rng nv) (Rng.bool rng) in
  let clause () =
    List.init (if Rng.int rng 10 = 0 then 1 else 2 + Rng.int rng 2) (fun _ -> lit ())
  in
  let formula = List.init (nv + Rng.int rng (4 * nv)) (fun _ -> clause ()) in
  let proof = ref [] and active = ref formula and dead = ref [] in
  let learn c =
    proof := S.Learn (Array.of_list c) :: !proof;
    active := c :: !active
  in
  let delete c =
    proof := S.Delete (Array.of_list c) :: !proof;
    active := Ref.remove (List.sort compare c) !active;
    dead := c :: !dead
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let resolvent pool =
    if pool = [] then None
    else
    let a = pick pool and b = pick pool in
    match List.find_opt (fun l -> List.mem (L.negate l) b) a with
    | None -> None
    | Some l ->
        let r =
          List.sort_uniq compare
            (List.filter (( <> ) l) a @ List.filter (( <> ) (L.negate l)) b)
        in
        if List.exists (fun x -> List.mem (L.negate x) r) r then None else Some r
  in
  (* Clauses with one true literal and all others false at the root
     fixpoint: each may be the reason of that unit. *)
  let reasons () =
    let values = Array.make Ref.nvars 0 in
    if Ref.propagate values !active then []
    else
      List.filter
        (fun c ->
          List.length (List.filter (fun l -> Ref.value values l = 1) c) = 1
          && List.for_all (fun l -> Ref.value values l <> 0) c)
        !active
  in
  (if Rng.int rng 3 = 0 then
     let s = S.create () in
     S.enable_proof s;
     for _ = 1 to nv do
       ignore (S.new_var s)
     done;
     List.iter (S.add_clause s) formula;
     if S.solve s = S.Unsat then
       List.iter
         (function S.Learn c -> learn (Array.to_list c) | S.Delete c -> delete (Array.to_list c))
         (S.proof_events s));
  for _ = 1 to Rng.int rng 25 do
    match Rng.int rng 6 with
    | 0 | 1 -> Option.iter learn (resolvent !active)
    | 2 -> Option.iter learn (resolvent (!active @ !dead))
    | 3 -> learn (List.init (1 + Rng.int rng 3) (fun _ -> lit ()))
    | 4 -> if !active <> [] then delete (pick !active)
    | _ -> (
        match reasons () with
        | [] -> if !active <> [] then delete (pick !active)
        | rs -> delete (pick rs))
  done;
  if Rng.bool rng then learn [];
  (formula, List.rev !proof)

let drup_cases = List.init 1500 drup_case

(* Same verdict and same [Invalid_step] index as the reference. *)
let test_engine_check () =
  let verdicts = Hashtbl.create 3 in
  List.iteri
    (fun i (formula, proof) ->
      let expected = Ref.check formula proof in
      let kind =
        match expected with
        | Drup.Valid -> "valid"
        | Drup.Invalid_step _ -> "invalid"
        | Drup.Incomplete -> "incomplete"
      in
      Hashtbl.replace verdicts kind ();
      if Drup.check formula proof <> expected then
        Alcotest.failf "case %d: Drup.check disagrees with the reference (%s)" i
          kind)
    drup_cases;
  Alcotest.(check int) "every verdict occurs" 3 (Hashtbl.length verdicts)

(* A valid proof stays valid under the reference after trimming, and
   never grows. *)
let test_engine_trim () =
  let valid = ref 0 and shrunk = ref 0 in
  List.iteri
    (fun i (formula, proof) ->
      if Ref.check formula proof = Drup.Valid then begin
        incr valid;
        let trimmed = Drup.trim formula proof in
        if Ref.check formula trimmed <> Drup.Valid then
          Alcotest.failf "case %d: the trimmed proof fails the reference" i;
        if List.length trimmed > List.length proof then
          Alcotest.failf "case %d: trimming grew the proof" i;
        if List.length trimmed < List.length proof then incr shrunk
      end)
    drup_cases;
  Alcotest.(check bool) "valid proofs trimmed" true (!valid > 50 && !shrunk > 20)

(* The lint's D006 steps are the reference's delete-then-use steps. *)
let test_engine_d006 () =
  let flagged = ref 0 in
  List.iteri
    (fun i (formula, proof) ->
      let expected = Ref.d006 formula proof in
      let got =
        List.filter_map
          (fun (d : Simgen_check.Diagnostic.t) ->
            match (d.code, d.loc) with
            | "D006", Simgen_check.Diagnostic.Clause k -> Some k
            | _ -> None)
          (Simgen_check.Proof_lint.run ~formula proof)
      in
      if expected <> [] then incr flagged;
      Alcotest.(check (list int))
        (Printf.sprintf "case %d: D006 steps" i)
        expected (List.sort compare got))
    drup_cases;
  Alcotest.(check bool) "delete-then-use occurs" true (!flagged > 20)

(* ------------------------------------------------------------------ *)
(* Tseitin                                                             *)
(* ------------------------------------------------------------------ *)

let small_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x = N.add_gate net (TT.and_ (TT.var 0 2) (TT.var 1 2)) [| a; b |] in
  let y = N.add_gate net (TT.xor (TT.var 0 2) (TT.var 1 2)) [| a; b |] in
  N.add_po net x;
  N.add_po net y;
  (net, x, y)

let test_tseitin_consistency () =
  (* Every model of the encoding matches a network simulation. *)
  let net, x, _ = small_net () in
  let env = Tseitin.create () in
  let vars = Tseitin.encode_network env net in
  Tseitin.add env [ Simgen_sat.Literal.pos vars.(x) ];
  match S.solve (Tseitin.solver env) with
  | S.Unsat -> Alcotest.fail "x=1 must be reachable"
  | S.Sat ->
      let pis = Tseitin.pi_values (Tseitin.solver env) net vars in
      let vals = N.eval net pis in
      Alcotest.(check bool) "simulation agrees" true vals.(x)

let test_tseitin_miter_same_node () =
  let net, x, _ = small_net () in
  let env = Tseitin.create () in
  let vars = Tseitin.encode_network env net in
  let m = L.pos (Tseitin.xor_var env vars.(x) vars.(x)) in
  Alcotest.(check bool) "x differs from x: unsat" true
    (S.solve ~assumptions:[ m ] (Tseitin.solver env) = S.Unsat)

let test_tseitin_miter_different_nodes () =
  let net, x, y = small_net () in
  let env = Tseitin.create () in
  let vars = Tseitin.encode_network env net in
  let m = L.pos (Tseitin.xor_var env vars.(x) vars.(y)) in
  (match S.solve ~assumptions:[ m ] (Tseitin.solver env) with
   | S.Unsat -> Alcotest.fail "AND and XOR differ"
   | S.Sat ->
       let pis = Tseitin.pi_values (Tseitin.solver env) net vars in
       let vals = N.eval net pis in
       Alcotest.(check bool) "counterexample distinguishes" true
         (vals.(x) <> vals.(y)))

let test_tseitin_shared_pis_cec () =
  (* Two structurally different but equivalent networks. *)
  let make f =
    let net = N.create () in
    let a = N.add_pi net in
    let b = N.add_pi net in
    let g = N.add_gate net f [| a; b |] in
    N.add_po net g;
    (net, g)
  in
  let net1, g1 = make (TT.not_ (TT.and_ (TT.var 0 2) (TT.var 1 2))) in
  let net2, g2 =
    make (TT.or_ (TT.not_ (TT.var 0 2)) (TT.not_ (TT.var 1 2)))
  in
  let env = Tseitin.create () in
  let vars1, vars2 = Tseitin.encode_shared_pis env net1 net2 in
  let x = Tseitin.xor_var env vars1.(g1) vars2.(g2) in
  Alcotest.(check bool) "de-morgan equivalent" true
    (S.solve ~assumptions:[ Simgen_sat.Literal.pos x ] (Tseitin.solver env)
     = S.Unsat)

let prop_tseitin_full_agreement =
  (* For random networks: encode, force a random PI assignment with
     assumptions, and check every node variable matches simulation. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"tseitin agrees with simulation" ~count:100
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let net = N.create () in
         let ids = ref [] in
         for _ = 1 to 4 do
           ids := N.add_pi net :: !ids
         done;
         for _ = 1 to 15 do
           let pool = Array.of_list !ids in
           let arity = 1 + Rng.int rng 3 in
           let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
           ids := N.add_gate net (TT.random rng arity) fanins :: !ids
         done;
         N.add_po net (List.hd !ids);
         let env = Tseitin.create () in
         let vars = Tseitin.encode_network env net in
         let pis = Array.init 4 (fun _ -> Rng.bool rng) in
         let assumptions =
           List.concat
             (List.map
                (fun id ->
                  match N.kind net id with
                  | N.Pi idx ->
                      [ Simgen_sat.Literal.make vars.(id) (not pis.(idx)) ]
                  | N.Gate _ -> [])
                (Array.to_list (N.pis net)))
         in
         match S.solve ~assumptions (Tseitin.solver env) with
         | S.Unsat -> false
         | S.Sat ->
             let vals = N.eval net pis in
             let ok = ref true in
             N.iter_nodes net (fun id ->
                 if S.value (Tseitin.solver env) vars.(id) <> vals.(id) then
                   ok := false);
             !ok))

(* ------------------------------------------------------------------ *)
(* DIMACS                                                              *)
(* ------------------------------------------------------------------ *)

let test_dimacs_roundtrip () =
  let clauses = [ [ L.pos 0; L.neg 1 ]; [ L.pos 2 ]; [ L.neg 0; L.pos 1; L.neg 2 ] ] in
  let text = Dimacs.to_string 3 clauses in
  let nvars, parsed = Dimacs.parse_string text in
  Alcotest.(check int) "nvars" 3 nvars;
  Alcotest.(check int) "clauses" 3 (List.length parsed);
  Alcotest.(check bool) "same clauses" true (parsed = clauses)

let test_dimacs_comments_and_load () =
  let text = "c comment\np cnf 2 2\n1 -2 0\nc another\n2 0\n" in
  let s = S.create () in
  let nvars, clauses = Dimacs.parse_string text in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v1 forced" true (S.value s 1)

let test_dimacs_errors () =
  (match Dimacs.parse_string "1 2 0\n" with
   | exception Dimacs.Parse_error _ -> ()
   | _ -> Alcotest.fail "missing header accepted");
  match Dimacs.parse_string "p cnf x y\n" with
  | exception Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad header accepted"

let () =
  Alcotest.run "sat"
    [
      ("literal", [ Alcotest.test_case "encoding" `Quick test_literal_encoding ]);
      ( "solver",
        [
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology" `Quick test_tautological_clause_ignored;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "pigeonhole 5/4" `Quick test_php_5_4;
          Alcotest.test_case "statistics" `Quick test_statistics_populated;
          Alcotest.test_case "stats snapshot" `Quick test_stats_snapshot;
          Alcotest.test_case "failed assumptions chain" `Quick
            test_failed_assumptions_chain;
          Alcotest.test_case "failed assumption at level 0" `Quick
            test_failed_assumptions_unit;
          Alcotest.test_case "failed assumptions on global unsat" `Quick
            test_failed_assumptions_global_unsat;
          Alcotest.test_case "activation-literal retirement" `Quick
            test_assumption_guard_retirement;
          prop_solver_correct;
          prop_assumptions_correct;
        ] );
      ( "drup",
        [
          Alcotest.test_case "php proof" `Quick test_drup_php_proof_valid;
          Alcotest.test_case "sat incomplete" `Quick
            test_drup_sat_proof_incomplete;
          Alcotest.test_case "trivial unsat" `Quick test_drup_trivial_unsat;
          Alcotest.test_case "rejects bogus" `Quick test_drup_rejects_bogus_step;
          prop_drup_random_unsat;
          Alcotest.test_case "dimacs format" `Quick test_drup_dimacs_format;
        ] );
      ( "engine",
        [
          Alcotest.test_case "check matches the list reference" `Quick
            test_engine_check;
          Alcotest.test_case "trim keeps proofs valid" `Quick test_engine_trim;
          Alcotest.test_case "D006 matches the list reference" `Quick
            test_engine_d006;
        ] );
      ( "tseitin",
        [
          Alcotest.test_case "consistency" `Quick test_tseitin_consistency;
          Alcotest.test_case "self miter unsat" `Quick
            test_tseitin_miter_same_node;
          Alcotest.test_case "distinct nodes sat" `Quick
            test_tseitin_miter_different_nodes;
          Alcotest.test_case "shared-PI CEC" `Quick test_tseitin_shared_pis_cec;
          prop_tseitin_full_agreement;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "comments/load" `Quick test_dimacs_comments_and_load;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
        ] );
    ]
