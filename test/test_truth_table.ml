module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng

let rng = Rng.create 2024

(* qcheck generator over (nvars, table). *)
let gen_table =
  QCheck2.Gen.(
    bind (int_range 0 8) (fun n ->
        map
          (fun seed -> TT.random (Rng.create seed) n)
          (int_range 0 1_000_000)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

(* ------------------------------------------------------------------ *)
(* Construction and evaluation                                         *)
(* ------------------------------------------------------------------ *)

let test_const () =
  let f = TT.create_const 3 false and t = TT.create_const 3 true in
  for m = 0 to 7 do
    Alcotest.(check bool) "const0" false (TT.get_bit f m);
    Alcotest.(check bool) "const1" true (TT.get_bit t m)
  done;
  Alcotest.(check (option bool)) "is_const false" (Some false) (TT.is_const f);
  Alcotest.(check (option bool)) "is_const true" (Some true) (TT.is_const t)

let test_var_semantics () =
  for n = 1 to 8 do
    for i = 0 to n - 1 do
      let v = TT.var i n in
      for m = 0 to (1 lsl n) - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "var %d of %d at %d" i n m)
          ((m lsr i) land 1 = 1)
          (TT.get_bit v m)
      done
    done
  done

let test_of_bits_matches_get_bit () =
  let f = TT.of_bits 3 0b10110100L in
  let expected = [ false; false; true; false; true; true; false; true ] in
  List.iteri
    (fun m e -> Alcotest.(check bool) "bit" e (TT.get_bit f m))
    expected

let test_eval_vs_get_bit () =
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 8 in
    let f = TT.random rng n in
    let m = Rng.int rng (1 lsl n) in
    let inputs = Array.init n (fun i -> (m lsr i) land 1 = 1) in
    Alcotest.(check bool) "eval" (TT.get_bit f m) (TT.eval f inputs)
  done

let test_bad_args () =
  Alcotest.check_raises "nvars too big"
    (Invalid_argument "Truth_table: nvars out of range") (fun () ->
      ignore (TT.create_const 17 false));
  Alcotest.check_raises "var out of range"
    (Invalid_argument "Truth_table.var") (fun () -> ignore (TT.var 3 3))

(* ------------------------------------------------------------------ *)
(* Algebra (property-based)                                            *)
(* ------------------------------------------------------------------ *)

let prop_double_negation =
  prop "double negation" gen_table (fun f -> TT.equal f (TT.not_ (TT.not_ f)))

let prop_de_morgan =
  prop "de morgan" gen_table (fun f ->
      let g = TT.random (Rng.create (TT.hash f land 0xFFFF)) (TT.nvars f) in
      TT.equal
        (TT.not_ (TT.and_ f g))
        (TT.or_ (TT.not_ f) (TT.not_ g)))

let prop_xor_self =
  prop "xor self is const0" gen_table (fun f ->
      TT.is_const (TT.xor f f) = Some false)

let prop_and_idempotent =
  prop "and idempotent" gen_table (fun f -> TT.equal f (TT.and_ f f))

let prop_shannon =
  prop "shannon expansion" gen_table (fun f ->
      let n = TT.nvars f in
      n = 0
      ||
      let i = TT.hash f land 0x3FFF mod n in
      let x = TT.var i n in
      TT.equal f
        (TT.or_
           (TT.and_ x (TT.cofactor f i true))
           (TT.and_ (TT.not_ x) (TT.cofactor f i false))))

let prop_cofactor_independent =
  prop "cofactor removes dependence" gen_table (fun f ->
      let n = TT.nvars f in
      n = 0 || not (TT.depends_on (TT.cofactor f 0 true) 0))

let prop_depends_on_cofactors =
  prop "depends_on = cofactors differ" gen_table (fun f ->
      (* Fix a hash-chosen subset of the variables, so that some lie
         outside the support. *)
      let n = TT.nvars f in
      let g = ref f in
      for i = 0 to n - 1 do
        if (TT.hash f lsr i) land 1 = 1 then g := TT.cofactor !g i true
      done;
      List.for_all
        (fun i ->
          TT.depends_on !g i
          = not (TT.equal (TT.cofactor !g i true) (TT.cofactor !g i false)))
        (List.init n Fun.id))

let prop_count_ones_negation =
  prop "count_ones of negation" gen_table (fun f ->
      TT.count_ones f + TT.count_ones (TT.not_ f) = 1 lsl TT.nvars f)

let prop_string_roundtrip =
  prop "to_string/of_string roundtrip" gen_table (fun f ->
      TT.equal f (TT.of_string (TT.to_string f)))

let prop_expand_preserves =
  prop "expand preserves function" gen_table (fun f ->
      let n = TT.nvars f in
      if n >= 8 then true
      else
        let g = TT.expand f (n + 2) in
        let ok = ref true in
        for m = 0 to (1 lsl (n + 2)) - 1 do
          if TT.get_bit g m <> TT.get_bit f (m land ((1 lsl n) - 1)) then
            ok := false
        done;
        !ok)

(* ------------------------------------------------------------------ *)
(* Support & structure                                                 *)
(* ------------------------------------------------------------------ *)

let test_support () =
  (* f = x0 AND x2 over 4 vars: support = [0; 2]. *)
  let f = TT.and_ (TT.var 0 4) (TT.var 2 4) in
  Alcotest.(check (list int)) "support" [ 0; 2 ] (TT.support f)

let test_of_minterms () =
  let f = TT.of_minterms 3 [ 0; 5; 7 ] in
  Alcotest.(check int) "three ones" 3 (TT.count_ones f);
  Alcotest.(check bool) "bit 5" true (TT.get_bit f 5);
  Alcotest.(check bool) "bit 3" false (TT.get_bit f 3)

let test_large_tables () =
  (* 10-variable tables exercise the multi-word representation. *)
  let f = TT.var 9 10 in
  Alcotest.(check bool) "high var low minterm" false (TT.get_bit f 0);
  Alcotest.(check bool) "high var set" true (TT.get_bit f (1 lsl 9));
  let g = TT.and_ f (TT.var 0 10) in
  Alcotest.(check int) "count" (1 lsl 8) (TT.count_ones g);
  Alcotest.(check (list int)) "support" [ 0; 9 ] (TT.support g);
  (* Cofactor on a word-boundary variable. *)
  let h = TT.cofactor f 9 true in
  Alcotest.(check (option bool)) "cofactor const" (Some true) (TT.is_const h)

let test_hash_consistency () =
  for _ = 1 to 100 do
    let n = Rng.int rng 9 in
    let f = TT.random rng n in
    let g = TT.of_string (TT.to_string f) in
    Alcotest.(check int) "equal tables hash equally" (TT.hash f) (TT.hash g)
  done

let () =
  Alcotest.run "truth_table"
    [
      ( "construction",
        [
          Alcotest.test_case "const" `Quick test_const;
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "of_bits" `Quick test_of_bits_matches_get_bit;
          Alcotest.test_case "eval" `Quick test_eval_vs_get_bit;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          Alcotest.test_case "of_minterms" `Quick test_of_minterms;
        ] );
      ( "algebra",
        [
          prop_double_negation;
          prop_de_morgan;
          prop_xor_self;
          prop_and_idempotent;
          prop_shannon;
          prop_cofactor_independent;
          prop_depends_on_cofactors;
          prop_count_ones_negation;
          prop_string_roundtrip;
          prop_expand_preserves;
        ] );
      ( "structure",
        [
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "multi-word tables" `Quick test_large_tables;
          Alcotest.test_case "hash consistency" `Quick test_hash_consistency;
        ] );
    ]
