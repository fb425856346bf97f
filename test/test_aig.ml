module Aig = Simgen_aig.Aig
module Aiger = Simgen_aig.Aiger
module Convert = Simgen_aig.Convert
module Rewrite = Simgen_aig.Rewrite
module N = Simgen_network.Network
module Rng = Simgen_base.Rng

let random_aig rng npis nands npos =
  let aig = Aig.create () in
  let lits = ref [] in
  for _ = 1 to npis do
    lits := Aig.add_pi aig :: !lits
  done;
  let arr = ref (Array.of_list !lits) in
  for _ = 1 to nands do
    let pick () =
      let l = Rng.choose rng !arr in
      if Rng.bool rng then Aig.not_ l else l
    in
    let l = Aig.and_ aig (pick ()) (pick ()) in
    arr := Array.append !arr [| l |]
  done;
  for _ = 1 to npos do
    let l = Rng.choose rng !arr in
    Aig.add_po aig (if Rng.bool rng then Aig.not_ l else l)
  done;
  aig

let check_equiv_sampled rng npis a eval_a b eval_b tag =
  let trials = if npis <= 10 then 1 lsl npis else 256 in
  for t = 0 to trials - 1 do
    let vec =
      Array.init npis (fun i ->
          if npis <= 10 then (t lsr i) land 1 = 1 else Rng.bool rng)
    in
    Alcotest.(check (array bool)) tag (eval_a a vec) (eval_b b vec)
  done

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let test_literal_encoding () =
  Alcotest.(check int) "false" 0 Aig.false_;
  Alcotest.(check int) "true" 1 Aig.true_;
  Alcotest.(check int) "not false" Aig.true_ (Aig.not_ Aig.false_);
  let l = Aig.lit_of_node 5 true in
  Alcotest.(check int) "node" 5 (Aig.node_of_lit l);
  Alcotest.(check bool) "complement" true (Aig.is_complemented l);
  Alcotest.(check bool) "double negation" true (Aig.not_ (Aig.not_ l) = l)

(* ------------------------------------------------------------------ *)
(* Strashing                                                           *)
(* ------------------------------------------------------------------ *)

let test_strash_folding () =
  let g = Aig.create () in
  let a = Aig.add_pi g and b = Aig.add_pi g in
  Alcotest.(check int) "x & 0 = 0" Aig.false_ (Aig.and_ g a Aig.false_);
  Alcotest.(check int) "x & 1 = x" a (Aig.and_ g a Aig.true_);
  Alcotest.(check int) "x & x = x" a (Aig.and_ g a a);
  Alcotest.(check int) "x & ~x = 0" Aig.false_ (Aig.and_ g a (Aig.not_ a));
  let ab = Aig.and_ g a b in
  Alcotest.(check int) "commutative sharing" ab (Aig.and_ g b a);
  Alcotest.(check int) "only one and" 1 (Aig.num_ands g)

let test_derived_gates () =
  let g = Aig.create () in
  let a = Aig.add_pi g and b = Aig.add_pi g and s = Aig.add_pi g in
  let or_ = Aig.or_ g a b in
  let xor = Aig.xor g a b in
  let mux = Aig.mux g s a b in
  let eval av bv sv l =
    let vals = Aig.eval g [| av; bv; sv |] in
    Aig.eval_lit vals l
  in
  Alcotest.(check bool) "or 10" true (eval true false false or_);
  Alcotest.(check bool) "or 00" false (eval false false false or_);
  Alcotest.(check bool) "xor 11" false (eval true true false xor);
  Alcotest.(check bool) "xor 10" true (eval true false false xor);
  Alcotest.(check bool) "mux sel" true (eval true false true mux);
  Alcotest.(check bool) "mux !sel" false (eval true false false mux)

let test_list_gates () =
  let g = Aig.create () in
  let xs = Array.init 5 (fun _ -> Aig.add_pi g) in
  let all = Aig.and_list g (Array.to_list xs) in
  let any = Aig.or_list g (Array.to_list xs) in
  let parity =
    Array.fold_left (Aig.xor g) xs.(0) (Array.sub xs 1 (Array.length xs - 1))
  in
  for m = 0 to 31 do
    let vec = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
    let vals = Aig.eval g vec in
    Alcotest.(check bool) "and_list" (Array.for_all Fun.id vec)
      (Aig.eval_lit vals all);
    Alcotest.(check bool) "or_list" (Array.exists Fun.id vec)
      (Aig.eval_lit vals any);
    let p = Array.fold_left (fun acc b -> if b then not acc else acc) false vec in
    Alcotest.(check bool) "xor chain" p (Aig.eval_lit vals parity)
  done;
  Alcotest.(check int) "empty and" Aig.true_ (Aig.and_list g []);
  Alcotest.(check int) "empty or" Aig.false_ (Aig.or_list g [])

let test_levels_and_fanouts () =
  let g = Aig.create () in
  let a = Aig.add_pi g and b = Aig.add_pi g in
  let ab = Aig.and_ g a b in
  let top = Aig.and_ g ab (Aig.not_ a) in
  Aig.add_po g top;
  let levels = Aig.level g in
  Alcotest.(check int) "and level" 1 levels.(Aig.node_of_lit ab);
  Alcotest.(check int) "top level" 2 levels.(Aig.node_of_lit top);
  let counts = Aig.fanout_counts g in
  Alcotest.(check int) "a used twice" 2 counts.(Aig.node_of_lit a);
  Alcotest.(check int) "top used once (po)" 1 counts.(Aig.node_of_lit top)

(* ------------------------------------------------------------------ *)
(* Cleanup                                                             *)
(* ------------------------------------------------------------------ *)

let test_cleanup_removes_dead () =
  let g = Aig.create () in
  let a = Aig.add_pi g and b = Aig.add_pi g in
  let keep = Aig.and_ g a b in
  let _dead = Aig.and_ g (Aig.not_ a) b in
  Aig.add_po g keep;
  let g' = Aig.cleanup g in
  Alcotest.(check int) "one and left" 1 (Aig.num_ands g');
  Alcotest.(check int) "pis preserved" 2 (Aig.num_pis g')

let test_cleanup_preserves_function () =
  let rng = Rng.create 31 in
  for _ = 1 to 20 do
    let aig = random_aig rng 6 40 4 in
    let clean = Aig.cleanup aig in
    check_equiv_sampled rng 6 aig Aig.eval_pos clean Aig.eval_pos "cleanup"
  done

(* ------------------------------------------------------------------ *)
(* AIGER round trip                                                    *)
(* ------------------------------------------------------------------ *)

let test_aiger_roundtrip () =
  let rng = Rng.create 37 in
  for _ = 1 to 20 do
    let aig = random_aig rng 5 30 3 in
    let aig' = Aiger.parse_string (Aiger.to_string aig) in
    Alcotest.(check int) "pis" (Aig.num_pis aig) (Aig.num_pis aig');
    Alcotest.(check int) "pos" (Aig.num_pos aig) (Aig.num_pos aig');
    check_equiv_sampled rng 5 aig Aig.eval_pos aig' Aig.eval_pos "aiger"
  done

let test_aiger_handwritten () =
  (* f = a AND ~b *)
  let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\n" in
  let aig = Aiger.parse_string text in
  Alcotest.(check (array bool)) "10" [| true |] (Aig.eval_pos aig [| true; false |]);
  Alcotest.(check (array bool)) "11" [| false |] (Aig.eval_pos aig [| true; true |])

let test_aiger_constant_output () =
  let text = "aag 1 1 0 2 0\n2\n0\n1\n" in
  let aig = Aiger.parse_string text in
  Alcotest.(check (array bool)) "const outputs" [| false; true |]
    (Aig.eval_pos aig [| true |])

let test_aiger_errors () =
  let bad s =
    match Aiger.parse_string s with
    | exception Aiger.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage" true (bad "not an aig");
  Alcotest.(check bool) "latches" true (bad "aag 1 0 1 0 0\n2 3\n");
  Alcotest.(check bool) "truncated" true (bad "aag 3 2 0 1 1\n2\n4\n")

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let test_network_of_aig () =
  let rng = Rng.create 41 in
  for _ = 1 to 20 do
    let aig = random_aig rng 6 40 4 in
    let net = Convert.network_of_aig aig in
    check_equiv_sampled rng 6 aig Aig.eval_pos net
      (fun n v -> N.eval_pos n v)
      "network_of_aig"
  done

let test_aig_of_network () =
  let rng = Rng.create 43 in
  for _ = 1 to 20 do
    let aig = random_aig rng 6 40 4 in
    let net = Convert.network_of_aig aig in
    let aig' = Convert.aig_of_network net in
    check_equiv_sampled rng 6 net
      (fun n v -> N.eval_pos n v)
      aig' Aig.eval_pos "aig_of_network"
  done

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)
(* ------------------------------------------------------------------ *)

let test_shuffle_rebuild_equivalent () =
  let rng = Rng.create 47 in
  for _ = 1 to 20 do
    let aig = random_aig rng 6 50 4 in
    let shuffled = Rewrite.shuffle_rebuild rng aig in
    check_equiv_sampled rng 6 aig Aig.eval_pos shuffled Aig.eval_pos "shuffle"
  done

let () =
  Alcotest.run "aig"
    [
      ( "literals",
        [ Alcotest.test_case "encoding" `Quick test_literal_encoding ] );
      ( "strash",
        [
          Alcotest.test_case "folding" `Quick test_strash_folding;
          Alcotest.test_case "derived gates" `Quick test_derived_gates;
          Alcotest.test_case "list gates" `Quick test_list_gates;
          Alcotest.test_case "levels/fanouts" `Quick test_levels_and_fanouts;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "removes dead" `Quick test_cleanup_removes_dead;
          Alcotest.test_case "preserves function" `Quick
            test_cleanup_preserves_function;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "roundtrip" `Quick test_aiger_roundtrip;
          Alcotest.test_case "handwritten" `Quick test_aiger_handwritten;
          Alcotest.test_case "constants" `Quick test_aiger_constant_output;
          Alcotest.test_case "errors" `Quick test_aiger_errors;
        ] );
      ( "convert",
        [
          Alcotest.test_case "network_of_aig" `Quick test_network_of_aig;
          Alcotest.test_case "aig_of_network" `Quick test_aig_of_network;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "shuffle equivalent" `Quick
            test_shuffle_rebuild_equivalent;
        ] );
    ]
