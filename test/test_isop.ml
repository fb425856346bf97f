module TT = Simgen_network.Truth_table
module Cube = Simgen_network.Cube
module Isop = Simgen_network.Isop
module Rng = Simgen_base.Rng

let gen_table =
  QCheck2.Gen.(
    bind (int_range 0 8) (fun n ->
        map
          (fun seed -> TT.random (Rng.create seed) n)
          (int_range 0 1_000_000)))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

(* ------------------------------------------------------------------ *)
(* Cube                                                                *)
(* ------------------------------------------------------------------ *)

let test_cube_dc_size () =
  let c = Cube.make [| Cube.T; Cube.DC; Cube.F; Cube.DC |] true in
  Alcotest.(check int) "dc_size" 2 (Cube.dc_size c)

(* Whether minterm [m] (bit [i] = input [i]) lies in the cube. *)
let matches (c : Cube.t) m =
  TT.get_bit (Cube.to_truth_table (Array.length c.Cube.lits) c) m

let test_cube_matches () =
  let c = Cube.make [| Cube.T; Cube.DC; Cube.F |] true in
  (* minterm bits: x0=1, x2=0 required. *)
  Alcotest.(check bool) "m=1 (001)" true (matches c 0b001);
  Alcotest.(check bool) "m=3 (011)" true (matches c 0b011);
  Alcotest.(check bool) "m=0" false (matches c 0b000);
  Alcotest.(check bool) "m=5 (101)" false (matches c 0b101)

let test_cube_eval_lits () =
  (* A row's output is irrelevant to which inputs it covers. *)
  let c = Cube.make [| Cube.F; Cube.T |] false in
  Alcotest.(check bool) "01" true (matches c 0b10);
  Alcotest.(check bool) "11" false (matches c 0b11)

let test_cube_to_truth_table () =
  let c = Cube.make [| Cube.T; Cube.DC |] true in
  let t = Cube.to_truth_table 2 c in
  Alcotest.(check int) "two minterms" 2 (TT.count_ones t);
  Alcotest.(check bool) "m1" true (TT.get_bit t 1);
  Alcotest.(check bool) "m3" true (TT.get_bit t 3)

(* ------------------------------------------------------------------ *)
(* ISOP cover properties                                               *)
(* ------------------------------------------------------------------ *)

let prop_cover_exact =
  prop "cover reconstructs the function" gen_table (fun f ->
      TT.equal f (Isop.cover_to_truth_table (TT.nvars f) (Isop.cover f)))

let prop_cover_cubes_are_implicants =
  prop "every cube is an implicant" gen_table (fun f ->
      List.for_all
        (fun c ->
          let ct = Cube.to_truth_table (TT.nvars f) c in
          (* ct AND ~f must be empty *)
          TT.is_const (TT.and_ ct (TT.not_ f)) = Some false)
        (Isop.cover f))

let prop_rows_partition =
  prop "rows decide every minterm correctly" gen_table (fun f ->
      let n = TT.nvars f in
      let rows = Isop.rows f in
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let v = TT.get_bit f m in
        let matching = List.filter (fun c -> matches c m) rows in
        if matching = [] then ok := false;
        List.iter
          (fun (c : Cube.t) -> if c.Cube.out <> v then ok := false)
          matching
      done;
      !ok)

let prop_cover_irredundant =
  prop "removing any cube loses coverage" gen_table (fun f ->
      let n = TT.nvars f in
      let cover = Isop.cover f in
      List.for_all
        (fun removed ->
          let rest = List.filter (fun c -> c != removed) cover in
          not (TT.equal f (Isop.cover_to_truth_table n rest)))
        cover)

let test_cover_const () =
  Alcotest.(check int) "const0 no cubes" 0
    (List.length (Isop.cover (TT.create_const 3 false)));
  (match Isop.cover (TT.create_const 3 true) with
   | [ c ] -> Alcotest.(check int) "const1 full DC" 3 (Cube.dc_size c)
   | _ -> Alcotest.fail "expected single cube");
  (* Zero-variable constants. *)
  Alcotest.(check int) "0-var const1" 1
    (List.length (Isop.cover (TT.create_const 0 true)))

let test_cover_and_gate () =
  let f = TT.and_ (TT.var 0 2) (TT.var 1 2) in
  match Isop.cover f with
  | [ c ] ->
      Alcotest.(check bool) "single product" true
        (c = Cube.make [| Cube.T; Cube.T |] true)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 cube, got %d" (List.length l))

let test_rows_nand_gate () =
  (* NAND on-set has two DC-bearing cubes; off-set exactly one. *)
  let f = TT.not_ (TT.and_ (TT.var 0 2) (TT.var 1 2)) in
  let rows = Isop.rows f in
  let on = List.filter (fun (c : Cube.t) -> c.Cube.out) rows in
  let off = List.filter (fun (c : Cube.t) -> not c.Cube.out) rows in
  Alcotest.(check int) "two on cubes" 2 (List.length on);
  Alcotest.(check int) "one off cube" 1 (List.length off);
  List.iter
    (fun c -> Alcotest.(check int) "on cubes have one DC" 1 (Cube.dc_size c))
    on

let test_cover_xor_no_dc () =
  (* XOR has no don't-cares in any cover. *)
  let f = TT.xor (TT.var 0 2) (TT.var 1 2) in
  List.iter
    (fun c -> Alcotest.(check int) "no DC" 0 (Cube.dc_size c))
    (Isop.rows f)

let test_paper_figure3_table () =
  (* Figure 3's f1: rows 1-1->1, 00-->0 style table. We encode the truth
     table of the paper's example: inputs (B, C, E) with
     f1 = 1 on rows matching "1-1" and "11-"; check advanced-implication
     prerequisites: with B=1 set, both matching rows produce out 1. *)
  let b = TT.var 0 3 and c = TT.var 1 3 and e = TT.var 2 3 in
  let f1 = TT.or_ (TT.and_ b e) (TT.and_ b c) in
  let rows = Isop.rows f1 in
  let matching =
    List.filter
      (fun (cb : Cube.t) -> cb.Cube.lits.(0) <> Cube.F)
      rows
    |> List.filter (fun (cb : Cube.t) ->
           (* compatible with B=1 only *)
           matches cb 0b001 || matches cb 0b011 || matches cb 0b101
           || matches cb 0b111)
  in
  Alcotest.(check bool) "matching rows exist" true (matching <> [])

(* ------------------------------------------------------------------ *)
(* One-word path against the reference recursion                      *)
(* ------------------------------------------------------------------ *)

(* Tables of 1-6 variables take the one-word path; [Isop.reference_cover]
   is the generic recursion. Both must give the same cubes in the same
   order, for the on-set and for the rows. *)
let same_as_reference f =
  Isop.cover f = Isop.reference_cover f
  && Isop.rows f
     = Isop.reference_cover f
       @ List.map
           (fun (c : Cube.t) -> Cube.make c.Cube.lits false)
           (Isop.reference_cover (TT.not_ f))

let check_same name f =
  if not (same_as_reference f) then
    Alcotest.failf "%s: one-word cover differs on %s" name (TT.to_string f)

let test_word_all_4_input () =
  for bits = 0 to 0xFFFF do
    check_same "4-input" (TT.of_bits 4 (Int64.of_int bits))
  done

let test_word_constants_and_vars () =
  for n = 1 to 6 do
    check_same "const0" (TT.create_const n false);
    check_same "const1" (TT.create_const n true);
    for i = 0 to n - 1 do
      check_same "var" (TT.var i n);
      check_same "not var" (TT.not_ (TT.var i n))
    done
  done

(* Random tables and structured ones (AND/OR/XOR of two random tables,
   which are sparse, dense and balanced), 1-6 inputs. *)
let test_word_random_and_structured () =
  let rng = Rng.create 0x150 in
  for _ = 1 to 2000 do
    let n = 1 + Rng.int rng 6 in
    let a = TT.random rng n and b = TT.random rng n in
    check_same "random" a;
    check_same "and" (TT.and_ a b);
    check_same "or" (TT.or_ a b);
    check_same "xor" (TT.xor a b)
  done

let () =
  Alcotest.run "isop"
    [
      ( "cube",
        [
          Alcotest.test_case "dc_size" `Quick test_cube_dc_size;
          Alcotest.test_case "matches" `Quick test_cube_matches;
          Alcotest.test_case "eval_lits" `Quick test_cube_eval_lits;
          Alcotest.test_case "to_truth_table" `Quick test_cube_to_truth_table;
        ] );
      ( "cover",
        [
          prop_cover_exact;
          prop_cover_cubes_are_implicants;
          prop_rows_partition;
          prop_cover_irredundant;
          Alcotest.test_case "constants" `Quick test_cover_const;
          Alcotest.test_case "and gate" `Quick test_cover_and_gate;
          Alcotest.test_case "nand rows" `Quick test_rows_nand_gate;
          Alcotest.test_case "xor has no DCs" `Quick test_cover_xor_no_dc;
          Alcotest.test_case "figure 3 table" `Quick test_paper_figure3_table;
        ] );
      ( "one-word",
        [
          Alcotest.test_case "every 4-input table" `Quick test_word_all_4_input;
          Alcotest.test_case "constants and variables" `Quick
            test_word_constants_and_vars;
          Alcotest.test_case "random and structured" `Quick
            test_word_random_and_structured;
        ] );
    ]
