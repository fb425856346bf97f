module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Miter = Simgen_sweep.Miter
module Sat_session = Simgen_sweep.Sat_session
module Sat_vectors = Simgen_sweep.Sat_vectors
module Sweeper = Simgen_sweep.Sweeper
module Cec = Simgen_sweep.Cec
module Strategy = Simgen_core.Strategy
module Eq = Simgen_sim.Eq_classes
module Sweep_options = Simgen_sweep.Sweep_options
module Fun_cache = Simgen_sweep.Fun_cache

(* Default sweep options with just the seed overridden — the one spelling
   every Sweeper/Cec entry point takes. *)
let opts seed = { Sweep_options.default with Sweep_options.seed }

let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)
let tt_xor2 = TT.xor (TT.var 0 2) (TT.var 1 2)

let random_net rng npis ngates =
  let net = N.create () in
  let ids = ref [] in
  for _ = 1 to npis do
    ids := N.add_pi net :: !ids
  done;
  for _ = 1 to ngates do
    let pool = Array.of_list !ids in
    let arity = 1 + Rng.int rng (min 4 (Array.length pool)) in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    ids := N.add_gate net (TT.random rng arity) fanins :: !ids
  done;
  let pool = Array.of_list !ids in
  for _ = 1 to 3 do
    N.add_po net (Rng.choose rng pool)
  done;
  net

(* net with equivalent pairs (x1,x2), (y1,y2) and near-miss pair (z1,z2)
   differing only on a=b=c=d=1 *)
let candidates_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let d = N.add_pi net in
  let x1 = N.add_gate net tt_and2 [| a; b |] in
  let x2 = N.add_gate net tt_and2 [| b; a |] in
  let y1 = N.add_gate net tt_or2 [| c; d |] in
  let y2 = N.add_gate net tt_or2 [| d; c |] in
  let z1 = N.add_gate net tt_or2 [| x1; y1 |] in
  (* z2 = z1 XOR (a&b&c&d): differs on one minterm *)
  let rare = N.add_gate net tt_and2 [| x2; y2 |] in
  let rare2 = N.add_gate net tt_and2 [| rare; c |] in
  let rare3 = N.add_gate net tt_and2 [| rare2; d |] in
  let z2 = N.add_gate net tt_xor2 [| z1; rare3 |] in
  List.iter (N.add_po net) [ z1; z2; x2; y2 ];
  (net, x1, x2, y1, y2, z1, z2)

(* ------------------------------------------------------------------ *)
(* Miter                                                               *)
(* ------------------------------------------------------------------ *)

(* A one-query session: the one-shot miter. *)
let check_pair ?subst net a b =
  Sat_session.check_pair (Sat_session.create ?subst net) a b

let test_miter_equal_pair () =
  let net, x1, x2, _, _, _, _ = candidates_net () in
  match check_pair net x1 x2 with
  | Sat_session.Equal -> ()
  | Sat_session.Counterexample _ -> Alcotest.fail "commuted AND is equivalent"
  | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget"

let test_miter_distinct_pair () =
  let net, x1, _, y1, _, _, _ = candidates_net () in
  match check_pair net x1 y1 with
  | Sat_session.Equal -> Alcotest.fail "AND and OR differ"
  | Sat_session.Counterexample vec ->
      let vals = N.eval net vec in
      Alcotest.(check bool) "cex distinguishes" true (vals.(x1) <> vals.(y1))
  | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget"

let test_miter_near_miss () =
  let net, _, _, _, _, z1, z2 = candidates_net () in
  match check_pair net z1 z2 with
  | Sat_session.Equal -> Alcotest.fail "near-miss pair differs on one minterm"
  | Sat_session.Counterexample vec ->
      Alcotest.(check (array bool)) "the rare minterm" [| true; true; true; true |] vec
  | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget"

let test_miter_same_node () =
  let net, x1, _, _, _, _, _ = candidates_net () in
  Alcotest.(check bool) "node vs itself" true (check_pair net x1 x1 = Sat_session.Equal)

let test_miter_with_subst () =
  let net, x1, x2, _, _, z1, _ = candidates_net () in
  let subst = Array.init (N.num_nodes net) Fun.id in
  subst.(x2) <- x1;
  (* After substitution the pair resolves to the same representative. *)
  Alcotest.(check bool) "resolved equal" true
    (check_pair ~subst net x1 x2 = Sat_session.Equal);
  (* And a distinct pair still gets a counter-example. *)
  (match check_pair ~subst net x1 z1 with
   | Sat_session.Counterexample _ -> ()
   | Sat_session.Equal -> Alcotest.fail "x1 and z1 differ"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget")

let test_miter_random_verified () =
  (* Cross-check the miter against exhaustive simulation. *)
  let rng = Rng.create 301 in
  for _ = 1 to 15 do
    let net = random_net rng 5 15 in
    let g1 = N.num_nodes net - 1 and g2 = N.num_nodes net - 2 in
    if (not (N.is_pi net g1)) && not (N.is_pi net g2) then begin
      let equal_exhaustive = ref true in
      for m = 0 to 31 do
        let vec = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
        let vals = N.eval net vec in
        if vals.(g1) <> vals.(g2) then equal_exhaustive := false
      done;
      match check_pair net g1 g2 with
      | Sat_session.Equal -> Alcotest.(check bool) "agrees" true !equal_exhaustive
      | Sat_session.Counterexample vec ->
          let vals = N.eval net vec in
          Alcotest.(check bool) "valid cex" true (vals.(g1) <> vals.(g2))
      | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget"
    end
  done

let certified net a b =
  let r =
    Miter.check_pair_fresh ~certify:true
      ~subst:(Array.init (N.num_nodes net) Fun.id)
      net a b
  in
  (r.Miter.verdict, r.Miter.valid)

let test_miter_certified () =
  let net, x1, x2, y1, _, z1, z2 = candidates_net () in
  (* Equal pair: UNSAT answer with a checked DRUP proof. *)
  (match certified net x1 x2 with
   | Sat_session.Equal, valid -> Alcotest.(check bool) "proof checks" true valid
   | Sat_session.Counterexample _, _ -> Alcotest.fail "equal pair"
   | Sat_session.Unknown, _ -> Alcotest.fail "unexpected Unknown without a budget");
  (* Distinct pair: counter-example validated by simulation. *)
  (match certified net x1 y1 with
   | Sat_session.Counterexample _, valid ->
       Alcotest.(check bool) "cex validated" true valid
   | Sat_session.Equal, _ -> Alcotest.fail "distinct pair"
   | Sat_session.Unknown, _ -> Alcotest.fail "unexpected Unknown without a budget");
  (* Near-miss: both outcomes certified across random nets too. *)
  match certified net z1 z2 with
  | Sat_session.Counterexample _, valid ->
      Alcotest.(check bool) "near-miss certified" true valid
  | Sat_session.Equal, _ -> Alcotest.fail "near-miss differs"
  | Sat_session.Unknown, _ -> Alcotest.fail "unexpected Unknown without a budget"

let test_miter_certified_random () =
  let rng = Rng.create 501 in
  for _ = 1 to 15 do
    let net = random_net rng 5 20 in
    let g1 = N.num_nodes net - 1 and g2 = N.num_nodes net - 2 in
    if (not (N.is_pi net g1)) && not (N.is_pi net g2) then
      let _, valid = certified net g1 g2 in
      Alcotest.(check bool) "certificate valid" true valid
  done

let test_po_miter () =
  let rng = Rng.create 307 in
  let net1 = random_net rng 4 15 in
  let net2 = N.copy net1 in
  let joined, pos1, pos2 = Cec.join net1 net2 in
  Array.iteri
    (fun i p1 ->
      Alcotest.(check bool) "identical nets equal" true
        (check_pair joined p1 pos2.(i) = Sat_session.Equal))
    pos1

(* ------------------------------------------------------------------ *)
(* Sweeper                                                             *)
(* ------------------------------------------------------------------ *)

let test_random_rounds_reduce_cost () =
  let net, _, _, _, _, _, _ = candidates_net () in
  let sw = Sweeper.create (opts 1) net in
  let c0 = Sweeper.cost sw in
  Sweeper.random_round sw;
  Alcotest.(check bool) "cost drops from initial" true (Sweeper.cost sw < c0)

let test_sat_sweep_resolves_everything () =
  let net, x1, x2, y1, y2, z1, z2 = candidates_net () in
  let sw = Sweeper.create (opts 1) net in
  Sweeper.random_round sw;
  let stats = Sweeper.sat_sweep (opts 1) sw in
  (* After sweeping, every remaining class has a single representative. *)
  List.iter
    (fun cls ->
      let reps = List.sort_uniq compare (List.map (Sweeper.representative sw) cls) in
      Alcotest.(check int) "single rep per class" 1 (List.length reps))
    (Eq.classes (Sweeper.classes sw));
  (* The true equivalences got merged... *)
  Alcotest.(check int) "x pair merged" (Sweeper.representative sw x1)
    (Sweeper.representative sw x2);
  Alcotest.(check int) "y pair merged" (Sweeper.representative sw y1)
    (Sweeper.representative sw y2);
  (* ...and the near-miss pair did not. *)
  Alcotest.(check bool) "near-miss separated" true
    (Sweeper.representative sw z1 <> Sweeper.representative sw z2);
  Alcotest.(check bool) "some calls" true (stats.Sweeper.calls > 0);
  Alcotest.(check bool) "proofs + disproofs = calls" true
    (stats.Sweeper.proved + stats.Sweeper.disproved = stats.Sweeper.calls)

let test_guided_round_splits_near_miss () =
  (* The near-miss pair (z1, z2) survives random simulation with high
     probability; guided simulation must split it without SAT. *)
  let hits = ref 0 in
  for seed = 1 to 10 do
    let net, _, _, _, _, z1, z2 = candidates_net () in
    let sw = Sweeper.create (opts seed) net in
    Sweeper.random_round sw;
    let same_class id1 id2 =
      match Eq.class_of (Sweeper.classes sw) id1 with
      | [] -> false
      | cls -> List.mem id2 cls
    in
    if same_class z1 z2 then begin
      ignore
        (Sweeper.run_guided
           { (opts seed) with Sweep_options.guided_iterations = 10 }
           sw);
      if not (same_class z1 z2) then incr hits
    end
    else incr hits (* random already split it: fine *)
  done;
  Alcotest.(check bool) "guided separates the near-miss usually" true (!hits >= 7)

let test_guided_stats_accumulate () =
  let net, _, _, _, _, _, _ = candidates_net () in
  let sw = Sweeper.create (opts 3) net in
  Sweeper.random_round sw;
  let d1 = Sweeper.guided_round sw Strategy.AI_RD in
  let d2 = Sweeper.guided_round sw Strategy.AI_RD in
  let total = Sweeper.guided_stats sw in
  Alcotest.(check int) "iterations accumulate"
    (d1.Sweeper.iterations + d2.Sweeper.iterations)
    total.Sweeper.iterations;
  Alcotest.(check bool) "time accumulates" true
    (total.Sweeper.guided_time >= d1.Sweeper.guided_time)

let test_cost_history_monotone () =
  let rng = Rng.create 311 in
  let net = random_net rng 5 30 in
  let sw = Sweeper.create (opts 7) net in
  for _ = 1 to 3 do
    Sweeper.random_round sw
  done;
  ignore
    (Sweeper.run_guided
       { (opts 7) with Sweep_options.guided_iterations = 5 }
       sw);
  let history = Sweeper.cost_history sw in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "non-increasing" true (b <= a);
        check rest
    | _ -> ()
  in
  check history

let test_sat_sweep_budget () =
  let net, _, _, _, _, _, _ = candidates_net () in
  let sw = Sweeper.create (opts 1) net in
  Sweeper.random_round sw;
  let stats =
    Sweeper.sat_sweep
      { (opts 1) with Sweep_options.max_sat_calls = Some 1 }
      sw
  in
  Alcotest.(check int) "budget respected" 1 stats.Sweeper.calls

let test_sweep_random_networks_sound () =
  (* On random networks: after sat_sweep, merged pairs are truly
     equivalent (checked exhaustively). *)
  let rng = Rng.create 313 in
  for _ = 1 to 8 do
    let net = random_net rng 5 25 in
    let sw = Sweeper.create (opts 11) net in
    Sweeper.random_round sw;
    ignore (Sweeper.sat_sweep (opts 11) sw);
    N.iter_gates net (fun id ->
        let rep = Sweeper.representative sw id in
        if rep <> id then
          for m = 0 to 31 do
            let vec = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
            let vals = N.eval net vec in
            Alcotest.(check bool) "merged nodes equivalent" vals.(rep) vals.(id)
          done)
  done

(* Two equivalent pairs (commuted AND, commuted OR): generation can never
   produce a useful vector for either class, so every guided round counts
   one failure per class until both are given up. *)
let unsplittable_pairs_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let g1 = N.add_gate net tt_and2 [| a; b |] in
  let g2 = N.add_gate net tt_and2 [| b; a |] in
  let g3 = N.add_gate net tt_or2 [| a; b |] in
  let g4 = N.add_gate net tt_or2 [| b; a |] in
  List.iter (N.add_po net) [ g1; g2; g3; g4 ];
  (net, g1, g3)

let test_gen_failures_give_up () =
  let net, g1, g3 = unsplittable_pairs_net () in
  let sw = Sweeper.create (opts 3) net in
  Alcotest.(check (list (pair int int)))
    "no failures before any guided round" []
    (Sweeper.gen_failure_counts sw);
  (* a=1, b=0 splits ANDs (0) from ORs (1): classes {g1,g2} and {g3,g4}
     with keys g1 and g3 — each key starts with a fresh counter. *)
  Sweeper.apply_vector sw [| true; false |];
  Alcotest.(check int) "two classes" 2 (Eq.num_classes (Sweeper.classes sw));
  for _ = 1 to Sweeper.max_class_failures do
    ignore (Sweeper.guided_round sw Strategy.AI_DC_MFFC)
  done;
  Alcotest.(check (list (pair int int)))
    "one failure per class per round, capped at the give-up limit"
    [ (g1, Sweeper.max_class_failures); (g3, Sweeper.max_class_failures) ]
    (Sweeper.gen_failure_counts sw);
  (* Both classes are given up now: further rounds skip them without
     attempting generation, so the counters stay frozen at the cap. *)
  let d = Sweeper.guided_round sw Strategy.AI_DC_MFFC in
  Alcotest.(check int) "both classes skipped" 2 d.Sweeper.skipped;
  Alcotest.(check int) "no useful vectors" 0 d.Sweeper.vectors;
  Alcotest.(check (list (pair int int)))
    "skipped classes accrue no further failures"
    [ (g1, Sweeper.max_class_failures); (g3, Sweeper.max_class_failures) ]
    (Sweeper.gen_failure_counts sw)

let test_gen_failures_fresh_key_after_split () =
  (* Give up on the one big class (key = smallest gate), then split it:
     the part that loses the smallest member gets a new key, hence a fresh
     counter, and generation is attempted for it again. *)
  let net, g1, g3 = unsplittable_pairs_net () in
  let sw = Sweeper.create (opts 3) net in
  (* All four gates share one class (key g1). Its OUTgold assignment
     alternates along the class, pairing equal-function nodes with equal
     golds and opposite-function nodes across — whether generation
     succeeds is heuristic, so drive the counter via rounds until the
     class either splits or is given up. *)
  let rec drive n =
    if n > 0 && Eq.num_classes (Sweeper.classes sw) = 1 then begin
      ignore (Sweeper.guided_round sw Strategy.AI_DC_MFFC);
      drive (n - 1)
    end
  in
  drive (Sweeper.max_class_failures + 1);
  (* Force the split regardless of what the generator did. *)
  Sweeper.apply_vector sw [| true; false |];
  Alcotest.(check int) "split into the two pairs" 2
    (Eq.num_classes (Sweeper.classes sw));
  (* The OR pair {g3, g4} never had its own key before the split: its
     counter starts fresh, strictly below the give-up cap. *)
  let or_failures =
    Option.value ~default:0
      (List.assoc_opt g3 (Sweeper.gen_failure_counts sw))
  in
  Alcotest.(check bool) "fresh counter for the new key" true
    (or_failures < Sweeper.max_class_failures);
  (* One more round attempts generation for the fresh class: its counter
     moves, proving it was not inherited from the given-up big class. *)
  ignore (Sweeper.guided_round sw Strategy.AI_DC_MFFC);
  let or_failures' =
    Option.value ~default:0
      (List.assoc_opt g3 (Sweeper.gen_failure_counts sw))
  in
  Alcotest.(check int) "fresh class attempted again" (or_failures + 1)
    or_failures';
  ignore g1

let test_sat_sweep_should_stop () =
  let net, _, _, _, _, _, _ = candidates_net () in
  let sw = Sweeper.create (opts 1) net in
  Sweeper.random_round sw;
  let stats =
    Sweeper.sat_sweep
      { (opts 1) with Sweep_options.should_stop = (fun () -> true) }
      sw
  in
  Alcotest.(check int) "no calls when stopped upfront" 0 stats.Sweeper.calls;
  (* A later unrestricted sweep still resolves everything. *)
  ignore (Sweeper.sat_sweep (opts 1) sw);
  List.iter
    (fun cls ->
      let reps =
        List.sort_uniq compare (List.map (Sweeper.representative sw) cls)
      in
      Alcotest.(check int) "resolved after resume" 1 (List.length reps))
    (Eq.classes (Sweeper.classes sw))

let test_sat_sweep_observer () =
  let net, _, _, _, _, _, _ = candidates_net () in
  let sw = Sweeper.create (opts 1) net in
  Sweeper.random_round sw;
  let cexs = ref [] and reported = ref [] in
  let observe : Sweep_options.observation -> unit = function
    | Sweep_options.Counterexample v -> cexs := v :: !cexs
    | Sweep_options.Sat_sweep s -> reported := s :: !reported
    | _ -> Alcotest.fail "the sweep reports only counter-examples and its stats"
  in
  let stats = Sweeper.sat_sweep { (opts 1) with Sweep_options.observe } sw in
  Alcotest.(check int) "one report per disproof" stats.Sweeper.disproved
    (List.length !cexs);
  Alcotest.(check bool) "the sweep's stats reported once" true
    (!reported = [ stats ]);
  List.iter
    (fun vec ->
      Alcotest.(check int) "full PI vectors" (N.num_pis net) (Array.length vec))
    !cexs

let test_apply_vectors_matches_one_by_one () =
  let rng = Rng.create 811 in
  let net = random_net rng 5 30 in
  let vecs =
    List.init 100 (fun _ -> Array.init 5 (fun _ -> Rng.bool rng))
  in
  let sw1 = Sweeper.create (opts 1) net in
  Sweeper.apply_vectors sw1 vecs;
  let sw2 = Sweeper.create (opts 1) net in
  List.iter (Sweeper.apply_vector sw2) vecs;
  (* Refinement is grouping-independent: the partitions agree. *)
  Alcotest.(check int) "same cost" (Sweeper.cost sw2) (Sweeper.cost sw1);
  Alcotest.(check int) "word-packed: 100 vectors in 2 passes" 2
    (List.length (Sweeper.cost_history sw1))

(* ------------------------------------------------------------------ *)
(* Merges                                                              *)
(* ------------------------------------------------------------------ *)

let test_merges_on_candidates () =
  let net, x1, x2, y1, y2, z1, z2 = candidates_net () in
  let sw = Sweeper.create (opts 1) net in
  Sweeper.random_round sw;
  ignore (Sweeper.sat_sweep (opts 1) sw);
  let rep = Sweeper.representative sw in
  (* The two proven-equivalent pairs merge; the near-miss pair does not. *)
  Alcotest.(check int) "x2 merged into x1" x1 (rep x2);
  Alcotest.(check int) "y2 merged into y1" y1 (rep y2);
  Alcotest.(check bool) "near miss kept apart" true (rep z1 <> rep z2);
  for m = 0 to 15 do
    let vals = N.eval net (Array.init 4 (fun i -> (m lsr i) land 1 = 1)) in
    N.iter_gates net (fun id ->
        Alcotest.(check bool) "gate = its representative" vals.(id)
          vals.(rep id))
  done

(* On random networks the merge map a swept network would be built from
   is sound: each proof merges exactly one gate away, and every gate
   equals its representative on every input. *)
let test_merged_network_random () =
  let rng = Rng.create 401 in
  for _ = 1 to 8 do
    let net = random_net rng 5 25 in
    let sw = Sweeper.create (opts 9) net in
    Sweeper.random_round sw;
    let s = Sweeper.sat_sweep (opts 9) sw in
    let rep = Sweeper.representative sw in
    let merged = ref 0 in
    N.iter_gates net (fun id -> if rep id <> id then incr merged);
    Alcotest.(check int) "one merged gate per proof" s.Sweeper.proved !merged;
    for m = 0 to 31 do
      let vals = N.eval net (Array.init 5 (fun i -> (m lsr i) land 1 = 1)) in
      N.iter_gates net (fun id ->
          Alcotest.(check bool) "equivalent" vals.(id) vals.(rep id))
    done
  done

(* ------------------------------------------------------------------ *)
(* SAT-based vector generation and 1-distance baselines                *)
(* ------------------------------------------------------------------ *)

let test_sat_vectors_realize_outgold () =
  let net, x1, _, y1, _, z1, z2 = candidates_net () in
  let session = Sat_session.create net in
  (match Sat_session.solve_targets session [ (x1, false); (y1, true) ] with
   | Some vec ->
       let vals = N.eval net vec in
       Alcotest.(check bool) "x1=0" false vals.(x1);
       Alcotest.(check bool) "y1=1" true vals.(y1)
   | None -> Alcotest.fail "satisfiable combination rejected");
  (* The near-miss pair: only the rare minterm (where z1 = 1, z2 = 0)
     splits it. *)
  match Sat_session.solve_targets session [ (z1, true); (z2, false) ] with
  | Some vec ->
      let vals = N.eval net vec in
      Alcotest.(check bool) "split realized" true (vals.(z1) <> vals.(z2))
  | None -> Alcotest.fail "the rare minterm exists"

let test_sat_vectors_unsat () =
  let net, x1, x2, _, _, _, _ = candidates_net () in
  (* Equivalent nodes cannot take opposite values. *)
  Alcotest.(check bool) "unsat combination" true
    (Sat_session.solve_targets (Sat_session.create net) [ (x1, false); (x2, true) ]
    = None)

let test_sat_vectors_pairwise_fallback () =
  let net, x1, x2, y1, _, _, _ = candidates_net () in
  (* x1 and x2 equivalent (conflicting golds), but the (x1, y1) pair is
     realizable: pairwise must find it. *)
  match
    Sat_vectors.generate_pairwise_in (Sat_session.create net)
      [ (x1, false); (x2, true); (y1, true) ]
  with
  | Some vec ->
      let vals = N.eval net vec in
      Alcotest.(check bool) "some opposite pair realized" true
        ((vals.(x1) = false && vals.(y1) = true)
        || (vals.(x2) = true && vals.(x1) = false))
  | None -> Alcotest.fail "pairwise fallback failed"

let test_sat_guided_round_splits () =
  let net, _, _, _, _, z1, z2 = candidates_net () in
  let sw = Sweeper.create (opts 5) net in
  Sweeper.random_round sw;
  let g =
    Sweeper.run_sat_guided
      { (opts 5) with Sweep_options.guided_iterations = 5 }
      sw
  in
  Alcotest.(check bool) "solver calls counted" true (g.Sweeper.gen_sat_calls > 0);
  (* The exact generator must split the near-miss pair. *)
  let same_class =
    match Eq.class_of (Sweeper.classes sw) z1 with
    | [] -> false
    | cls -> List.mem z2 cls
  in
  Alcotest.(check bool) "near-miss split by SAT vectors" false same_class

let test_one_distance_refines () =
  (* With [one_distance], the sweep simulates a counter-example together
     with its one-bit flips. Stopped right after the first one, no class
     holds two gates that one of those flips tells apart. *)
  let rng = Rng.create 577 in
  for _ = 1 to 8 do
    let net = random_net rng 5 25 in
    let cex = ref None in
    let o =
      {
        (opts 5) with
        Sweep_options.one_distance = true;
        observe =
          (function Sweep_options.Counterexample v -> cex := Some v | _ -> ());
        should_stop = (fun () -> !cex <> None);
      }
    in
    let sw = Sweeper.create o net in
    ignore (Sweeper.sat_sweep o sw);
    match !cex with
    | None -> Alcotest.fail "the sweep found no counter-example"
    | Some cex ->
        for bit = 0 to N.num_pis net - 1 do
          let flipped = Array.copy cex in
          flipped.(bit) <- not flipped.(bit);
          let vals = N.eval net flipped in
          List.iter
            (fun cls ->
              List.iter
                (fun id ->
                  Alcotest.(check bool) "class refined by the 1-distance flip"
                    vals.(List.hd cls) vals.(id))
                cls)
            (Eq.classes (Sweeper.classes sw))
        done
  done

let prop_sat_vectors_sound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"SAT vectors realize their OUTgold constraints"
       ~count:150
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let net = random_net rng 5 20 in
         let gates = ref [] in
         N.iter_gates net (fun id -> gates := id :: !gates);
         let pool = Array.of_list !gates in
         let targets =
           List.sort_uniq compare
             (List.init (min 3 (Array.length pool)) (fun _ ->
                  Rng.choose rng pool))
         in
         let outgold = List.map (fun id -> (id, Rng.bool rng)) targets in
         match
           Sat_session.solve_targets (Sat_session.create ~rng net) outgold
         with
         | Some vec ->
             let vals = N.eval net vec in
             List.for_all (fun (id, gold) -> vals.(id) = gold) outgold
         | None ->
             (* UNSAT answer: cross-check exhaustively. *)
             let ok = ref true in
             for m = 0 to 31 do
               let vec = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
               let vals = N.eval net vec in
               if List.for_all (fun (id, gold) -> vals.(id) = gold) outgold
               then ok := false
             done;
             !ok))

let test_outgold_strategy_plumbed () =
  (* Random_balanced OUTgold still yields sound sweeping. *)
  let net, _, _, _, _, _, _ = candidates_net () in
  let o =
    { (opts 5) with
      Sweep_options.outgold = Simgen_core.Outgold.Random_balanced;
      guided_iterations = 5 }
  in
  let sw = Sweeper.create o net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided o sw);
  let stats = Sweeper.sat_sweep o sw in
  Alcotest.(check bool) "flow completes" true (stats.Sweeper.calls >= 0);
  List.iter
    (fun cls ->
      let reps =
        List.sort_uniq compare (List.map (Sweeper.representative sw) cls)
      in
      Alcotest.(check int) "resolved" 1 (List.length reps))
    (Eq.classes (Sweeper.classes sw))

(* ------------------------------------------------------------------ *)
(* CEC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cec_equivalent_copies () =
  let rng = Rng.create 317 in
  let net1 = random_net rng 5 30 in
  let net2 = N.copy net1 in
  let report = Cec.check (opts 5) net1 net2 in
  Alcotest.(check bool) "equivalent" true (report.Cec.outcome = Cec.Equivalent)

let test_cec_restructured_copy () =
  (* Equivalence survives re-association through the AIG pipeline. *)
  let rng = Rng.create 331 in
  let aig = Simgen_aig.Convert.aig_of_network (random_net rng 5 30) in
  let net1 = Simgen_mapping.Lut_mapper.map ~k:4 aig in
  let net2 =
    Simgen_mapping.Lut_mapper.map ~k:6 (Simgen_aig.Rewrite.shuffle_rebuild rng aig)
  in
  let report = Cec.check (opts 5) net1 net2 in
  Alcotest.(check bool) "equivalent after restructuring" true
    (report.Cec.outcome = Cec.Equivalent)

let test_cec_detects_mutation () =
  let rng = Rng.create 337 in
  let net1 = random_net rng 5 30 in
  (* Mutate one gate: flip its function. *)
  let net2 = N.create () in
  let flipped = ref (-1) in
  N.iter_nodes net1 (fun id ->
      match N.kind net1 id with
      | N.Pi _ -> ignore (N.add_pi net2)
      | N.Gate f ->
          let f' =
            if !flipped < 0 && not (N.is_pi net1 id) then begin
              flipped := id;
              TT.not_ f
            end
            else f
          in
          ignore (N.add_gate net2 f' (N.fanins net1 id)));
  Array.iter (fun id -> N.add_po net2 id) (N.pos net1);
  (* Flipping an internal gate that reaches a PO must be caught. *)
  let reaches_po =
    Array.exists
      (fun po -> List.mem !flipped (Simgen_network.Cone.fanin_cone_many net1 [ po ]))
      (N.pos net1)
  in
  if reaches_po then begin
    let report = Cec.check (opts 5) net1 net2 in
    match report.Cec.outcome with
    | Cec.Not_equivalent { po; vector } ->
        let v1 = N.eval_pos net1 vector and v2 = N.eval_pos net2 vector in
        Alcotest.(check bool) "witness valid" true (v1.(po) <> v2.(po))
    | Cec.Equivalent -> Alcotest.fail "mutation missed"
    | Cec.Inconclusive _ -> Alcotest.fail "unexpected Inconclusive"
  end

let test_cec_near_miss_mutation () =
  (* A rare-cube XOR on a PO: random simulation misses it; CEC must not. *)
  let net1 = N.create () in
  let pis = Array.init 12 (fun _ -> N.add_pi net1) in
  let and_tree net =
    let rec go = function
      | [] -> assert false
      | [ x ] -> x
      | x :: y :: rest -> go (rest @ [ N.add_gate net tt_and2 [| x; y |] ])
    in
    go (Array.to_list pis)
  in
  let o1 = N.add_gate net1 tt_or2 [| pis.(0); pis.(1) |] in
  N.add_po net1 o1;
  let net2 = N.create () in
  let pis2 = Array.init 12 (fun _ -> N.add_pi net2) in
  ignore pis2;
  let rare =
    let rec go acc i =
      if i >= 12 then acc
      else go (N.add_gate net2 tt_and2 [| acc; i |]) (i + 1)
    in
    go 0 1
  in
  let o2' = N.add_gate net2 tt_or2 [| 0; 1 |] in
  let o2 = N.add_gate net2 tt_xor2 [| o2'; rare |] in
  N.add_po net2 o2;
  ignore (and_tree net1);
  let report = Cec.check (opts 5) net1 net2 in
  (match report.Cec.outcome with
   | Cec.Not_equivalent { vector; _ } ->
       Alcotest.(check bool) "rare input found" true
         (Array.for_all Fun.id vector)
   | Cec.Equivalent -> Alcotest.fail "near-miss missed"
   | Cec.Inconclusive _ -> Alcotest.fail "unexpected Inconclusive")

let test_cec_join () =
  let rng = Rng.create 347 in
  let net1 = random_net rng 4 10 in
  let net2 = random_net rng 4 12 in
  let joined, pos1, pos2 = Cec.join net1 net2 in
  Alcotest.(check int) "shared pis" 4 (N.num_pis joined);
  Alcotest.(check int) "all pos" (N.num_pos net1 + N.num_pos net2)
    (N.num_pos joined);
  for m = 0 to 15 do
    let vec = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
    let vals = N.eval joined vec in
    let e1 = N.eval_pos net1 vec and e2 = N.eval_pos net2 vec in
    Array.iteri
      (fun i id -> Alcotest.(check bool) "net1 po preserved" e1.(i) vals.(id))
      pos1;
    Array.iteri
      (fun i id -> Alcotest.(check bool) "net2 po preserved" e2.(i) vals.(id))
      pos2
  done

let test_cec_report_history () =
  let rng = Rng.create 353 in
  let net1 = random_net rng 5 30 in
  let net2 = N.copy net1 in
  let report = Cec.check (opts 5) net1 net2 in
  Alcotest.(check bool) "history recorded" true (report.Cec.cost_history <> []);
  Alcotest.(check int) "final cost is the last sample"
    (List.nth report.Cec.cost_history
       (List.length report.Cec.cost_history - 1))
    report.Cec.final_cost

(* A flow capped at zero SAT calls with no PO pairs stops after the
   guided rounds: no query is posed, and the final cost is the one the
   last guided round left. *)
let test_cec_run_without_sat () =
  let net, _, _, _, _, _, _ = candidates_net () in
  let base = { (opts 3) with Sweep_options.max_sat_calls = Some 0 } in
  let sw = Sweeper.create base net in
  let guided_cost = ref (-1) and rounds = ref 0 in
  let observe : Sweep_options.observation -> unit = function
    | Sweep_options.Guided_round _ ->
        incr rounds;
        guided_cost := Sweeper.cost sw
    | Sweep_options.Random_round _ | Sweep_options.Sat_sweep _
    | Sweep_options.Counterexample _ ->
        ()
  in
  let report = Cec.run { base with Sweep_options.observe } sw [||] [||] in
  Alcotest.(check int) "every guided round observed"
    base.Sweep_options.guided_iterations !rounds;
  Alcotest.(check int) "no SAT query" 0 report.Cec.sat.Sweeper.calls;
  Alcotest.(check int) "no PO query" 0 report.Cec.po_calls;
  Alcotest.(check bool) "not stopped" false report.Cec.stopped;
  Alcotest.(check bool) "a plain sweep is Equivalent" true
    (report.Cec.outcome = Cec.Equivalent);
  Alcotest.(check int) "final cost is the guided cost" !guided_cost
    report.Cec.final_cost;
  Alcotest.(check bool) "the equivalent pairs are left for SAT" true
    (report.Cec.final_cost > 0)

(* [max_sat_calls] counts the PO queries with the sweep's. Each PO is a
   PI on one side and a buffer of it on the other, so the sweep has no
   gate pair to prove and every one of the six PO pairs costs a PO
   query: a cap of four stops the flow before the fifth. *)
let test_cec_cap_counts_po_queries () =
  let n = 6 in
  let plain = N.create () and buffered = N.create () in
  let a = Array.init n (fun _ -> N.add_pi plain)
  and b = Array.init n (fun _ -> N.add_pi buffered) in
  Array.iter (N.add_po plain) a;
  Array.iter
    (fun x -> N.add_po buffered (N.add_gate buffered (TT.var 0 1) [| x |]))
    b;
  let capped = { (opts 3) with Sweep_options.max_sat_calls = Some 4 } in
  let report = Cec.check capped plain buffered in
  Alcotest.(check int) "calls stop at the cap" 4
    (report.Cec.sat.Sweeper.calls + report.Cec.po_calls);
  Alcotest.(check bool) "stopped" true report.Cec.stopped;
  (match report.Cec.outcome with
   | Cec.Inconclusive { pos } ->
       Alcotest.(check int) "the unposed pairs are undecided" 2
         (List.length pos)
   | Cec.Equivalent | Cec.Not_equivalent _ ->
       Alcotest.fail "a stopped flow is Inconclusive");
  let free = Cec.check (opts 3) plain buffered in
  Alcotest.(check int) "uncapped, every pair is queried" n
    (free.Cec.sat.Sweeper.calls + free.Cec.po_calls);
  Alcotest.(check bool) "uncapped, equivalent" true
    (free.Cec.outcome = Cec.Equivalent)

(* ------------------------------------------------------------------ *)
(* Incremental SAT sessions                                            *)
(* ------------------------------------------------------------------ *)

module Suite = Simgen_benchgen.Suite

(* All gate pairs of a small net, in a deterministic order. *)
let gate_pairs net =
  let gates = ref [] in
  N.iter_gates net (fun id -> gates := id :: !gates);
  let gates = List.rev !gates in
  List.concat_map
    (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) gates)
    gates

let check_differential net pairs seed =
  let session = Sat_session.create ~rng:(Rng.create seed) net in
  List.iter
    (fun (a, b) ->
      let fresh_verdict =
        (Miter.check_pair_fresh ~rng:(Rng.create (seed lxor 0xF))
           ~subst:(Array.init (N.num_nodes net) Fun.id)
           net a b)
          .Miter.verdict
      in
      let session_verdict = Sat_session.check_pair session a b in
      match (fresh_verdict, session_verdict) with
      | Sat_session.Equal, Sat_session.Equal -> ()
      | Sat_session.Counterexample v1, Sat_session.Counterexample v2 ->
          (* Counter-example vectors may differ (different models); both
             must actually distinguish the pair. *)
          let d vec =
            let vals = N.eval net vec in
            vals.(a) <> vals.(b)
          in
          Alcotest.(check bool) "fresh cex distinguishes" true (d v1);
          Alcotest.(check bool) "session cex distinguishes" true (d v2)
      | Sat_session.Equal, Sat_session.Counterexample _ ->
          Alcotest.failf "pair (%d,%d): fresh says Equal, session disagrees" a b
      | Sat_session.Counterexample _, Sat_session.Equal ->
          Alcotest.failf "pair (%d,%d): session says Equal, fresh disagrees" a b
      | Sat_session.Unknown, _ | _, Sat_session.Unknown ->
          Alcotest.failf "pair (%d,%d): unexpected Unknown without a budget" a b)
    pairs

let test_session_vs_fresh_differential () =
  (* Identical verdicts from the incremental session and the fresh-solver
     reference, across >= 3 seeds, on the fixture, random nets and suite
     benchmarks. *)
  List.iter
    (fun seed ->
      let net, _, _, _, _, _, _ = candidates_net () in
      check_differential net (gate_pairs net) seed;
      let rng = Rng.create (seed * 13) in
      let rnet = random_net rng 5 12 in
      check_differential rnet (gate_pairs rnet) seed)
    [ 101; 202; 303 ];
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      (* A slice of pairs keeps the quadratic blow-up in check. *)
      let pairs = List.filteri (fun i _ -> i mod 97 = 0) (gate_pairs net) in
      List.iter (fun seed -> check_differential net pairs seed) [ 11; 22; 33 ])
    [ "apex2"; "cps" ]

let test_session_retirement () =
  (* Every solver-backed query retires its miter, and retired miters do
     not leak constraints: a disproved pair stays provable as different
     and an equal pair stays equal. *)
  let net, x1, x2, _, _, z1, _ = candidates_net () in
  let session = Sat_session.create ~rng:(Rng.create 5) net in
  (match Sat_session.check_pair session x1 z1 with
   | Sat_session.Counterexample _ -> ()
   | Sat_session.Equal -> Alcotest.fail "x1 and z1 differ"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  (match Sat_session.check_pair session x1 x2 with
   | Sat_session.Equal -> ()
   | Sat_session.Counterexample _ -> Alcotest.fail "commuted AND is equivalent"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  let s1 = Sat_session.stats session in
  Alcotest.(check int) "every query retired its miter" s1.Sat_session.queries
    s1.Sat_session.retired;
  Alcotest.(check int) "one proved" 1 s1.Sat_session.proved;
  Alcotest.(check int) "one disproved" 1 s1.Sat_session.disproved;
  (* Repeat the queries: same verdicts. *)
  (match Sat_session.check_pair session x1 z1 with
   | Sat_session.Counterexample _ -> ()
   | Sat_session.Equal -> Alcotest.fail "retired miter leaked a constraint"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  (match Sat_session.check_pair session x1 x2 with
   | Sat_session.Equal -> ()
   | Sat_session.Counterexample _ -> Alcotest.fail "equality clause lost"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  let s2 = Sat_session.stats session in
  Alcotest.(check int) "still fully retired" s2.Sat_session.queries
    s2.Sat_session.retired

let test_session_requery_proven_pair () =
  (* A proof retracts the loser's definition, ready for the merge. When
     the caller declines it and asks again, the loser is encoded afresh
     and the pair is proved again: the second [Equal] comes from the
     re-encoded cone, not from clauses left behind. *)
  let net, x1, x2, _, _, _, _ = candidates_net () in
  let session = Sat_session.create ~rng:(Rng.create 5) net in
  let ask () =
    match Sat_session.check_pair session x1 x2 with
    | Sat_session.Equal -> Sat_session.stats session
    | Sat_session.Counterexample _ -> Alcotest.fail "commuted AND is equivalent"
    | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget"
  in
  let s1 = ask () in
  let s2 = ask () in
  Alcotest.(check int) "both queries reached the solver" 2
    s2.Sat_session.queries;
  Alcotest.(check int) "proved twice" 2 s2.Sat_session.proved;
  Alcotest.(check int) "the loser alone encoded again"
    (s1.Sat_session.encoded + 1) s2.Sat_session.encoded

let test_session_reencodes_after_merge () =
  (* h1 = OR(g1,a) and h2 = OR(g2,a) become structurally identical once
     g2 is merged into g1; proving them must re-encode h2 (or h1) over
     the new fanin variable. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let g1 = N.add_gate net tt_and2 [| a; b |] in
  let g2 = N.add_gate net tt_and2 [| b; a |] in
  let h1 = N.add_gate net tt_or2 [| g1; a |] in
  let h2 = N.add_gate net tt_or2 [| g2; a |] in
  let k = N.add_gate net tt_xor2 [| a; b |] in
  List.iter (N.add_po net) [ h1; h2; k ];
  let subst = Array.init (N.num_nodes net) Fun.id in
  let session = Sat_session.create ~subst ~rng:(Rng.create 9) net in
  (* Encode h2's cone (over g2) before the merge. *)
  (match Sat_session.check_pair session h2 k with
   | Sat_session.Counterexample _ -> ()
   | Sat_session.Equal -> Alcotest.fail "h2 and xor differ"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  (match Sat_session.check_pair session g1 g2 with
   | Sat_session.Equal -> subst.(g2) <- g1
   | Sat_session.Counterexample _ -> Alcotest.fail "commuted AND is equivalent"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  let before = Sat_session.stats session in
  (match Sat_session.check_pair session h1 h2 with
   | Sat_session.Equal -> ()
   | Sat_session.Counterexample _ ->
       Alcotest.fail "equal after the merge of their fanins"
   | Sat_session.Unknown -> Alcotest.fail "unexpected Unknown without a budget");
  let after = Sat_session.stats session in
  Alcotest.(check bool) "the merge forced a re-encoding" true
    (after.Sat_session.reencoded > before.Sat_session.reencoded)

(* Every node's value on all 2^n PI vectors: entry [m] sets PI [i] to
   bit [i] of [m]. *)
let exhaustive net =
  let n = N.num_pis net in
  Array.init (1 lsl n) (fun m ->
      N.eval net (Array.init n (fun i -> (m lsr i) land 1 = 1)))

let gate_array net =
  let gates = ref [] in
  N.iter_gates net (fun id -> gates := id :: !gates);
  Array.of_list (List.rev !gates)

let test_session_random_exhaustive () =
  (* One session per random network, 30 pair queries each, with the
     solver sanitizer armed and the full audit (watch lists and blockers
     included) after every query. The session never merges, so every
     cone it encodes stays in the database, bar the definition of a
     proven pair's loser, which the next query through it encodes again;
     later queries run beside the fenced frontier clauses of earlier
     cones, and each query's activation literal is an out-of-focus
     assumption. Every verdict is
     checked against exhaustive evaluation. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let net = random_net rng (6 + Rng.int rng 5) 40 in
      let truth = exhaustive net in
      let gates = gate_array net in
      let agree a b = Array.for_all (fun v -> v.(a) = v.(b)) truth in
      let session = Sat_session.create ~audit:true ~rng:(Rng.create seed) net in
      let equal = ref 0 in
      for q = 1 to 30 do
        let a = Rng.choose rng gates in
        (* Every third query prefers a functionally equal partner. *)
        let twins =
          Array.of_list
            (List.filter (fun b -> b <> a && agree a b) (Array.to_list gates))
        in
        let b =
          if q mod 3 = 0 && twins <> [||] then Rng.choose rng twins
          else Rng.choose rng gates
        in
        (match Sat_session.check_pair session a b with
        | Sat_session.Equal ->
            incr equal;
            if not (agree a b) then
              Alcotest.failf "seed %d query %d: Equal on distinguishable (%d,%d)"
                seed q a b
        | Sat_session.Counterexample vec ->
            let v = N.eval net vec in
            if v.(a) = v.(b) then
              Alcotest.failf
                "seed %d query %d: counterexample does not split (%d,%d)" seed
                q a b
        | Sat_session.Unknown ->
            Alcotest.failf "seed %d query %d: Unknown without a budget" seed q);
        Sat_session.audit session
      done;
      Alcotest.(check bool) "some queries proved equal" true (!equal > 0))
    [ 1; 2; 3; 4 ]

module Solver = Simgen_sat.Solver

let test_stacked_reads_below_visits () =
  (* Focused queries on a stacked circuit: the blocker literals settle
     part of every query's watcher visits without reading the clause. *)
  let net = Suite.stacked_lut_network "square" in
  let session = Sat_session.create ~rng:(Rng.create 3) net in
  let gates = gate_array net in
  let searched = ref 0 in
  for i = 0 to 19 do
    let before = Sat_session.solver_stats session in
    ignore
      (Sat_session.check_pair session gates.(Array.length gates - 1 - i)
         gates.(Array.length gates - 2 - i)
        : Sat_session.verdict);
    let d = Solver.diff_stats (Sat_session.solver_stats session) before in
    if d.Solver.watch_visits > 0 then begin
      incr searched;
      if d.Solver.clause_reads >= d.Solver.watch_visits then
        Alcotest.failf "query %d read %d clauses in %d visits" i
          d.Solver.clause_reads d.Solver.watch_visits
    end
  done;
  Alcotest.(check bool) "some queries searched" true (!searched > 0)

let final_partition sw net =
  let parts = ref [] in
  N.iter_gates net (fun id -> parts := Sweeper.representative sw id :: !parts);
  !parts

let sweep_partition opts net =
  let sw = Sweeper.create opts net in
  Sweeper.random_round sw;
  ignore (Sweeper.run_guided opts sw);
  let s = Sweeper.sat_sweep opts sw in
  (final_partition sw net, s)

let test_sweep_routes_agree () =
  (* Full flow, fresh vs incremental vs certified: identical final merge
     partitions (and call counts) across seeds and networks. *)
  let nets =
    (let net, _, _, _, _, _, _ = candidates_net () in
     [ net ])
    @ List.map
        (fun s -> random_net (Rng.create s) 5 25)
        [ 41; 42; 43 ]
  in
  List.iter
    (fun net ->
      List.iter
        (fun seed ->
          let opts seed =
            { Sweep_options.default with Sweep_options.seed;
              guided_iterations = 5 }
          in
          let inc, s_inc =
            sweep_partition { (opts seed) with Sweep_options.incremental = true } net
          in
          let fr, s_fr =
            sweep_partition { (opts seed) with Sweep_options.incremental = false } net
          in
          let cert, _ =
            sweep_partition { (opts seed) with Sweep_options.certify = true } net
          in
          Alcotest.(check bool) "incremental = fresh partition" true (inc = fr);
          Alcotest.(check bool) "certified partition too" true (inc = cert);
          (* Counter-example sequences (and so call counts) may differ
             between routes; the number of proved merges cannot — it is
             [gates - true classes] either way. *)
          Alcotest.(check int) "same proved merges" s_fr.Sweeper.proved
            s_inc.Sweeper.proved)
        [ 1; 7; 19 ])
    nets

let test_cut_check_partitions () =
  (* The cut-local check changes which route decides a pair, never the
     outcome: with and without it, the same final merge partitions on the
     circuits of the guided goldens. *)
  let fc = Fun_cache.create () in
  List.iter
    (fun bench ->
      let net = Suite.lut_network bench in
      let o = { Sweep_options.default with Sweep_options.seed = 7;
                guided_iterations = 5 } in
      let plain, s_plain = sweep_partition o net in
      let checked, s_checked =
        sweep_partition { o with Sweep_options.fun_cache = Some fc } net
      in
      Alcotest.(check bool) (bench ^ ": same partition") true (plain = checked);
      Alcotest.(check int) (bench ^ ": same proved merges")
        s_plain.Sweeper.proved s_checked.Sweeper.proved)
    [ "dec"; "priority"; "apex5"; "alu4"; "square"; "b14_C" ];
  let s = Fun_cache.stats fc in
  Alcotest.(check bool) "the check answered some pairs" true
    (s.Fun_cache.local_proofs > 0 && s.Fun_cache.local_cexes > 0)

let test_cec_with_fresh_route () =
  (* Cec.check agrees across routes on an equivalent copy. *)
  let rng = Rng.create 777 in
  let net1 = random_net rng 5 25 in
  let net2 = N.copy net1 in
  let outcome opts = (Cec.check opts net1 net2).Cec.outcome in
  let base = { Sweep_options.default with Sweep_options.guided_iterations = 5 } in
  Alcotest.(check bool) "incremental equivalent" true
    (outcome base = Cec.Equivalent);
  Alcotest.(check bool) "fresh route agrees" true
    (outcome { base with Sweep_options.incremental = false } = Cec.Equivalent)

let () =
  Alcotest.run "sweep"
    [
      ( "miter",
        [
          Alcotest.test_case "equal pair" `Quick test_miter_equal_pair;
          Alcotest.test_case "distinct pair" `Quick test_miter_distinct_pair;
          Alcotest.test_case "near miss" `Quick test_miter_near_miss;
          Alcotest.test_case "same node" `Quick test_miter_same_node;
          Alcotest.test_case "substitution" `Quick test_miter_with_subst;
          Alcotest.test_case "random verified" `Quick test_miter_random_verified;
          Alcotest.test_case "certified" `Quick test_miter_certified;
          Alcotest.test_case "certified random" `Quick test_miter_certified_random;
          Alcotest.test_case "po miter" `Quick test_po_miter;
        ] );
      ( "sweeper",
        [
          Alcotest.test_case "random rounds" `Quick test_random_rounds_reduce_cost;
          Alcotest.test_case "sat sweep resolves" `Quick
            test_sat_sweep_resolves_everything;
          Alcotest.test_case "guided splits near-miss" `Quick
            test_guided_round_splits_near_miss;
          Alcotest.test_case "stats accumulate" `Quick test_guided_stats_accumulate;
          Alcotest.test_case "cost history" `Quick test_cost_history_monotone;
          Alcotest.test_case "budget" `Quick test_sat_sweep_budget;
          Alcotest.test_case "gen-failure give-up" `Quick
            test_gen_failures_give_up;
          Alcotest.test_case "gen-failure fresh key after split" `Quick
            test_gen_failures_fresh_key_after_split;
          Alcotest.test_case "sat sweep should_stop" `Quick
            test_sat_sweep_should_stop;
          Alcotest.test_case "sat sweep observer" `Quick test_sat_sweep_observer;
          Alcotest.test_case "apply_vectors word-packs" `Quick
            test_apply_vectors_matches_one_by_one;
          Alcotest.test_case "merges are sound" `Quick
            test_sweep_random_networks_sound;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "merged network" `Quick
            test_merges_on_candidates;
          Alcotest.test_case "merged random" `Quick test_merged_network_random;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "sat vectors realize outgold" `Quick
            test_sat_vectors_realize_outgold;
          Alcotest.test_case "sat vectors unsat" `Quick test_sat_vectors_unsat;
          Alcotest.test_case "pairwise fallback" `Quick
            test_sat_vectors_pairwise_fallback;
          Alcotest.test_case "sat guided round" `Quick test_sat_guided_round_splits;
          Alcotest.test_case "one distance" `Quick test_one_distance_refines;
          prop_sat_vectors_sound;
          Alcotest.test_case "outgold strategy" `Quick test_outgold_strategy_plumbed;
        ] );
      ( "session",
        [
          Alcotest.test_case "differential vs fresh" `Quick
            test_session_vs_fresh_differential;
          Alcotest.test_case "retirement" `Quick test_session_retirement;
          Alcotest.test_case "proven pair asked twice" `Quick
            test_session_requery_proven_pair;
          Alcotest.test_case "re-encode after merge" `Quick
            test_session_reencodes_after_merge;
          Alcotest.test_case "random sessions vs exhaustive" `Quick
            test_session_random_exhaustive;
          Alcotest.test_case "stacked reads below visits" `Quick
            test_stacked_reads_below_visits;
          Alcotest.test_case "sweep routes agree" `Quick test_sweep_routes_agree;
          Alcotest.test_case "cut check keeps partitions" `Quick
            test_cut_check_partitions;
          Alcotest.test_case "cec routes agree" `Quick test_cec_with_fresh_route;
        ] );
      ( "cec",
        [
          Alcotest.test_case "equivalent copies" `Quick test_cec_equivalent_copies;
          Alcotest.test_case "restructured copy" `Quick test_cec_restructured_copy;
          Alcotest.test_case "detects mutation" `Quick test_cec_detects_mutation;
          Alcotest.test_case "near-miss mutation" `Quick test_cec_near_miss_mutation;
          Alcotest.test_case "join" `Quick test_cec_join;
          Alcotest.test_case "report history" `Quick test_cec_report_history;
          Alcotest.test_case "run without SAT" `Quick test_cec_run_without_sat;
          Alcotest.test_case "SAT-call cap counts PO queries" `Quick
            test_cec_cap_counts_po_queries;
        ] );
    ]
