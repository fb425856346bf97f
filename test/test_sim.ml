module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Sim = Simgen_sim.Simulator
module Eq = Simgen_sim.Eq_classes
module Rng = Simgen_base.Rng

(* The single-vector node values at bit [k] of a node-word array. *)
let values_bit node_words k =
  Array.map
    (fun w -> Int64.logand (Int64.shift_right_logical w k) 1L = 1L)
    node_words

let random_net rng npis ngates =
  let net = N.create () in
  let ids = ref [] in
  for _ = 1 to npis do
    ids := N.add_pi net :: !ids
  done;
  for _ = 1 to ngates do
    let pool = Array.of_list !ids in
    let arity = 1 + Rng.int rng (min 5 (Array.length pool)) in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    ids := N.add_gate net (TT.random rng arity) fanins :: !ids
  done;
  let pool = Array.of_list !ids in
  for _ = 1 to 3 do
    N.add_po net (Rng.choose rng pool)
  done;
  net

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

(* Gates of every arity from 0 to 8, plus the odd 12-input one, so both
   the single-word kernel and the mux tree across table words run; fanins
   are drawn with replacement (repeats included) and a quarter of the
   tables are constant. *)
let wide_net rng npis ngates =
  let net = N.create () in
  let ids = ref [] in
  for _ = 1 to npis do
    ids := N.add_pi net :: !ids
  done;
  for _ = 1 to ngates do
    let pool = Array.of_list !ids in
    let arity = if Rng.int rng 10 = 0 then 12 else Rng.int rng 9 in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    let f =
      if Rng.int rng 4 = 0 then TT.create_const arity (Rng.bool rng)
      else TT.random rng arity
    in
    ids := N.add_gate net f fanins :: !ids
  done;
  net

let test_word_vs_scalar () =
  (* Word simulation bit k must equal scalar simulation of vector k, in
     all 64 lanes. *)
  let rng = Rng.create 101 in
  for _ = 1 to 15 do
    let npis = 3 + Rng.int rng 5 in
    let net = wide_net rng npis 25 in
    let words = Sim.random_word rng net in
    let node_words = Sim.simulate_word net words in
    for k = 0 to 63 do
      let vec =
        Array.init npis (fun i ->
            Int64.logand (Int64.shift_right_logical words.(i) k) 1L = 1L)
      in
      let scalar = N.eval net vec in
      let from_word = values_bit node_words k in
      N.iter_nodes net (fun id ->
          Alcotest.(check bool) "bit matches scalar" scalar.(id) from_word.(id))
    done
  done

let test_word_of_vector_broadcast () =
  let rng = Rng.create 103 in
  let net = random_net rng 4 10 in
  let vec = [| true; false; true; true |] in
  let words = Sim.word_of_vector net vec in
  let node_words = Sim.simulate_word net words in
  let scalar = N.eval net vec in
  (* every bit position holds the same vector *)
  List.iter
    (fun k ->
      let v = values_bit node_words k in
      N.iter_nodes net (fun id ->
          Alcotest.(check bool) "broadcast" scalar.(id) v.(id)))
    [ 0; 17; 63 ]

let test_vector_word_update () =
  let words = [| 0L; -1L; 0L |] in
  Sim.vector_word [| true; false; true |] 5 words;
  Alcotest.(check int64) "set bit" 32L words.(0);
  Alcotest.(check int64) "cleared bit" (Int64.lognot 32L) words.(1);
  Alcotest.(check int64) "set bit third" 32L words.(2)

let test_random_word_determinism () =
  let rng1 = Rng.create 5 and rng2 = Rng.create 5 in
  let net = random_net (Rng.create 9) 4 5 in
  Alcotest.(check bool) "same seed same batch" true
    (Sim.random_word rng1 net = Sim.random_word rng2 net)

(* ------------------------------------------------------------------ *)
(* Equivalence classes                                                 *)
(* ------------------------------------------------------------------ *)

(* Network with two pairs of provably equal gates and one distinct gate:
   x1 = a&b, x2 = b&a (same function, different node), y = a|b, n = a^b *)
let redundant_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let and2 = TT.and_ (TT.var 0 2) (TT.var 1 2) in
  let or2 = TT.or_ (TT.var 0 2) (TT.var 1 2) in
  let xor2 = TT.xor (TT.var 0 2) (TT.var 1 2) in
  let x1 = N.add_gate net and2 [| a; b |] in
  let x2 = N.add_gate net and2 [| b; a |] in
  let y1 = N.add_gate net or2 [| a; b |] in
  let y2 = N.add_gate net or2 [| b; a |] in
  let n = N.add_gate net xor2 [| a; b |] in
  List.iter (N.add_po net) [ x1; x2; y1; y2; n ];
  (net, x1, x2, y1, y2, n)

(* Refine by one input vector, broadcast to every lane of a word. *)
let refine_vector net eq vec =
  Eq.refine_word eq (Sim.simulate_word net (Sim.word_of_vector net vec))

let exhaustive_refine net eq =
  for m = 0 to (1 lsl N.num_pis net) - 1 do
    let vec = Array.init (N.num_pis net) (fun i -> (m lsr i) land 1 = 1) in
    refine_vector net eq vec
  done

let test_initial_class () =
  let net, _, _, _, _, _ = redundant_net () in
  let eq = Eq.create net in
  Alcotest.(check int) "one class" 1 (Eq.num_classes eq);
  Alcotest.(check int) "cost = gates - 1" 4 (Eq.cost eq)

let test_exhaustive_refinement () =
  let net, x1, x2, y1, y2, _ = redundant_net () in
  let eq = Eq.create net in
  exhaustive_refine net eq;
  (* Only the two true-equivalence pairs remain. *)
  Alcotest.(check int) "two classes" 2 (Eq.num_classes eq);
  Alcotest.(check int) "cost" 2 (Eq.cost eq);
  Alcotest.(check (list int)) "and pair" [ x1; x2 ] (Eq.class_of eq x1);
  Alcotest.(check (list int)) "or pair" [ y1; y2 ] (Eq.class_of eq y1)

let test_refinement_never_merges () =
  let rng = Rng.create 107 in
  for _ = 1 to 10 do
    let net = random_net rng 5 30 in
    let eq = Eq.create net in
    let prev_cost = ref (Eq.cost eq) in
    for _ = 1 to 5 do
      let words = Sim.random_word rng net in
      Eq.refine_word eq (Sim.simulate_word net words);
      let c = Eq.cost eq in
      Alcotest.(check bool) "cost non-increasing" true (c <= !prev_cost);
      prev_cost := c
    done
  done

let test_classes_respect_signatures () =
  (* Nodes in the same class after refinement agree on every applied
     vector. *)
  let rng = Rng.create 109 in
  let net = random_net rng 4 25 in
  let eq = Eq.create net in
  exhaustive_refine net eq;
  List.iter
    (fun cls ->
      match cls with
      | rep :: rest ->
          for m = 0 to 15 do
            let vec = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
            let vals = N.eval net vec in
            List.iter
              (fun id ->
                Alcotest.(check bool) "equal signature" vals.(rep) vals.(id))
              rest
          done
      | [] -> ())
    (Eq.classes eq)

let test_singletons_dropped () =
  let net, _, _, _, _, n = redundant_net () in
  let eq = Eq.create net in
  exhaustive_refine net eq;
  Alcotest.(check (list int)) "xor gate is singleton" [] (Eq.class_of eq n)

(* After every step of a random sequence of word and vector refinements,
   the classes are exactly the groups of gates with equal value
   histories, and [class_of] names each gate's group. *)
let prop_refine_matches_history =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"refinement = grouping by value history"
       ~count:100
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let net = random_net rng (2 + Rng.int rng 4) (5 + Rng.int rng 25) in
         let eq = Eq.create net in
         let history = Array.make (N.num_nodes net) [] in
         let ok = ref true in
         for _ = 1 to 1 + Rng.int rng 8 do
           (if Rng.bool rng then begin
              let words = Sim.simulate_word net (Sim.random_word rng net) in
              Eq.refine_word eq words;
              Array.iteri (fun id w -> history.(id) <- `W w :: history.(id)) words
            end
            else begin
              let vec = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
              let values = N.eval net vec in
              refine_vector net eq vec;
              Array.iteri (fun id v -> history.(id) <- `V v :: history.(id)) values
            end);
           let tbl = Hashtbl.create 16 in
           N.iter_gates net (fun id ->
               let h = history.(id) in
               Hashtbl.replace tbl h
                 (id :: Option.value ~default:[] (Hashtbl.find_opt tbl h)));
           let expected =
             Hashtbl.fold
               (fun _ ids acc ->
                 if List.length ids >= 2 then List.rev ids :: acc else acc)
               tbl []
             |> List.sort compare
           in
           let group_of id =
             Option.value ~default:[]
               (List.find_opt (List.mem id) expected)
           in
           ok :=
             !ok
             && Eq.classes eq = expected
             && List.for_all
                  (fun id -> Eq.class_of eq id = group_of id)
                  (List.init (N.num_nodes net) Fun.id)
         done;
         !ok))

let test_pis_excluded () =
  let net, _, _, _, _, _ = redundant_net () in
  let eq = Eq.create net in
  List.iter
    (fun cls ->
      List.iter
        (fun id -> Alcotest.(check bool) "no PI in class" false (N.is_pi net id))
        cls)
    (Eq.classes eq)

let () =
  Alcotest.run "sim"
    [
      ( "simulator",
        [
          Alcotest.test_case "word vs scalar" `Quick test_word_vs_scalar;
          Alcotest.test_case "broadcast" `Quick test_word_of_vector_broadcast;
          Alcotest.test_case "vector_word" `Quick test_vector_word_update;
          Alcotest.test_case "determinism" `Quick test_random_word_determinism;
        ] );
      ( "eq_classes",
        [
          Alcotest.test_case "initial class" `Quick test_initial_class;
          Alcotest.test_case "exhaustive refinement" `Quick
            test_exhaustive_refinement;
          Alcotest.test_case "never merges" `Quick test_refinement_never_merges;
          Alcotest.test_case "signatures" `Quick test_classes_respect_signatures;
          Alcotest.test_case "singletons dropped" `Quick test_singletons_dropped;
          Alcotest.test_case "PIs excluded" `Quick test_pis_excluded;
          prop_refine_matches_history;
        ] );
    ]
