module Aig = Simgen_aig.Aig
module N = Simgen_network.Network
module Rng = Simgen_base.Rng
module Arith = Simgen_benchgen.Arith
module Control = Simgen_benchgen.Control
module Pla = Simgen_benchgen.Pla
module Random_logic = Simgen_benchgen.Random_logic
module Redundancy = Simgen_benchgen.Redundancy
module Suite = Simgen_benchgen.Suite

let word_value vals word =
  Array.to_list word
  |> List.mapi (fun i l -> if Aig.eval_lit vals l then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Arithmetic generators                                               *)
(* ------------------------------------------------------------------ *)

let test_ripple_adder () =
  let g = Aig.create () in
  let a = Array.init 4 (fun _ -> Aig.add_pi g) in
  let b = Array.init 4 (fun _ -> Aig.add_pi g) in
  let sums, cout = Arith.ripple_adder g a b ~cin:Aig.false_ in
  for x = 0 to 15 do
    for y = 0 to 15 do
      let vec = Array.init 8 (fun i ->
          if i < 4 then (x lsr i) land 1 = 1 else (y lsr (i - 4)) land 1 = 1)
      in
      let vals = Aig.eval g vec in
      let s = word_value vals sums + if Aig.eval_lit vals cout then 16 else 0 in
      Alcotest.(check int) (Printf.sprintf "%d+%d" x y) (x + y) s
    done
  done

let test_subtractor () =
  (* The subtractor behind the ALU's op 1. *)
  let g = Aig.create () in
  let op = [| Aig.true_; Aig.false_ |] in
  let a = Array.init 4 (fun _ -> Aig.add_pi g) in
  let b = Array.init 4 (fun _ -> Aig.add_pi g) in
  let diff = Arith.alu g ~op a b in
  for x = 0 to 15 do
    for y = 0 to 15 do
      let vec = Array.init 8 (fun i ->
          if i < 4 then (x lsr i) land 1 = 1 else (y lsr (i - 4)) land 1 = 1)
      in
      let vals = Aig.eval g vec in
      Alcotest.(check int) (Printf.sprintf "%d-%d" x y) ((x - y) land 15)
        (word_value vals diff)
    done
  done

let test_multiplier () =
  (* The array multiplier behind [square], over several operand widths:
     result width is twice the operand width, and every product is exact. *)
  for w = 1 to 6 do
    let g = Aig.create () in
    let a = Array.init w (fun _ -> Aig.add_pi g) in
    let prod = Arith.square g a in
    Alcotest.(check int) "result width" (2 * w) (Array.length prod);
    for x = 0 to (1 lsl w) - 1 do
      let vec = Array.init w (fun i -> (x lsr i) land 1 = 1) in
      let vals = Aig.eval g vec in
      Alcotest.(check int) (Printf.sprintf "%d*%d" x x) (x * x)
        (word_value vals prod)
    done
  done

let test_square () =
  let g = Aig.create () in
  let a = Array.init 4 (fun _ -> Aig.add_pi g) in
  let sq = Arith.square g a in
  for x = 0 to 15 do
    let vec = Array.init 4 (fun i -> (x lsr i) land 1 = 1) in
    let vals = Aig.eval g vec in
    Alcotest.(check int) "square" (x * x) (word_value vals sq)
  done

let test_alu_ops () =
  let g = Aig.create () in
  let op = Array.init 2 (fun _ -> Aig.add_pi g) in
  let a = Array.init 4 (fun _ -> Aig.add_pi g) in
  let b = Array.init 4 (fun _ -> Aig.add_pi g) in
  let out = Arith.alu g ~op a b in
  let eval opv x y =
    let vec = Array.init 10 (fun i ->
        if i < 2 then (opv lsr i) land 1 = 1
        else if i < 6 then (x lsr (i - 2)) land 1 = 1
        else (y lsr (i - 6)) land 1 = 1)
    in
    word_value (Aig.eval g vec) out
  in
  let rng = Rng.create 409 in
  for _ = 1 to 100 do
    let x = Rng.int rng 16 and y = Rng.int rng 16 in
    Alcotest.(check int) "add" ((x + y) land 15) (eval 0 x y);
    Alcotest.(check int) "sub" ((x - y) land 15) (eval 1 x y);
    Alcotest.(check int) "and" (x land y) (eval 2 x y);
    Alcotest.(check int) "xor" (x lxor y) (eval 3 x y)
  done

let test_cascades_have_depth () =
  let g = Aig.create () in
  let a = Array.init 6 (fun _ -> Aig.add_pi g) in
  let out = Arith.shift_add_cascade g ~rounds:4 a in
  Array.iter (fun l -> Aig.add_po g l) out;
  Alcotest.(check bool) "non-trivial" true (Aig.num_ands g > 20);
  let out2 = Arith.log_approx g a in
  Array.iter (fun l -> Aig.add_po g l) out2;
  Alcotest.(check bool) "log structure built" true (Aig.num_ands g > 30)

(* ------------------------------------------------------------------ *)
(* Control generators                                                  *)
(* ------------------------------------------------------------------ *)

let test_decoder () =
  let g = Aig.create () in
  let sel = Array.init 3 (fun _ -> Aig.add_pi g) in
  let outs = Control.decoder g sel in
  Alcotest.(check int) "8 outputs" 8 (Array.length outs);
  for code = 0 to 7 do
    let vec = Array.init 3 (fun i -> (code lsr i) land 1 = 1) in
    let vals = Aig.eval g vec in
    Array.iteri
      (fun i l ->
        Alcotest.(check bool) "one-hot" (i = code) (Aig.eval_lit vals l))
      outs
  done

let test_priority_encoder () =
  let g = Aig.create () in
  let xs = Array.init 6 (fun _ -> Aig.add_pi g) in
  let index, valid = Control.priority_encoder g xs in
  for m = 0 to 63 do
    let vec = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
    let vals = Aig.eval g vec in
    if m = 0 then
      Alcotest.(check bool) "invalid when empty" false (Aig.eval_lit vals valid)
    else begin
      let expected =
        let rec first i = if (m lsr i) land 1 = 1 then i else first (i + 1) in
        first 0
      in
      Alcotest.(check bool) "valid" true (Aig.eval_lit vals valid);
      Alcotest.(check int) "lowest index wins" expected (word_value vals index)
    end
  done

let test_majority () =
  let g = Aig.create () in
  let xs = Array.init 7 (fun _ -> Aig.add_pi g) in
  let maj = Control.majority g xs in
  for m = 0 to 127 do
    let vec = Array.init 7 (fun i -> (m lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 vec in
    let vals = Aig.eval g vec in
    Alcotest.(check bool)
      (Printf.sprintf "majority of %d ones" ones)
      (ones > 3) (Aig.eval_lit vals maj)
  done

let test_arbiter_grants () =
  let g = Aig.create () in
  let req = Array.init 4 (fun _ -> Aig.add_pi g) in
  let pointer = Array.init 2 (fun _ -> Aig.add_pi g) in
  let grants = Control.round_robin_arbiter g ~req ~pointer in
  for m = 0 to 15 do
    for p = 0 to 3 do
      let vec = Array.init 6 (fun i ->
          if i < 4 then (m lsr i) land 1 = 1 else (p lsr (i - 4)) land 1 = 1)
      in
      let vals = Aig.eval g vec in
      let granted =
        Array.to_list grants
        |> List.mapi (fun i l -> (i, Aig.eval_lit vals l))
        |> List.filter snd |> List.map fst
      in
      if m = 0 then Alcotest.(check (list int)) "no grant" [] granted
      else begin
        (* exactly one grant, to a requester, the first at/after pointer *)
        Alcotest.(check int) "single grant" 1 (List.length granted);
        let gi = List.hd granted in
        Alcotest.(check bool) "granted a requester" true ((m lsr gi) land 1 = 1);
        let expected =
          let rec scan k =
            let idx = (p + k) mod 4 in
            if (m lsr idx) land 1 = 1 then idx else scan (k + 1)
          in
          scan 0
        in
        Alcotest.(check int) "round robin order" expected gi
      end
    done
  done

let test_control_mix_deterministic () =
  let build seed =
    let g = Aig.create () in
    let xs = Array.init 8 (fun _ -> Aig.add_pi g) in
    let outs = Control.control_mix g (Rng.create seed) ~inputs:xs ~outputs:4 in
    Array.iter (fun l -> Aig.add_po g l) outs;
    g
  in
  let g1 = build 5 and g2 = build 5 in
  Alcotest.(check int) "same size" (Aig.num_ands g1) (Aig.num_ands g2);
  let rng = Rng.create 419 in
  for _ = 1 to 100 do
    let vec = Array.init 8 (fun _ -> Rng.bool rng) in
    Alcotest.(check (array bool)) "same function" (Aig.eval_pos g1 vec)
      (Aig.eval_pos g2 vec)
  done

(* ------------------------------------------------------------------ *)
(* PLA / random logic / redundancy                                     *)
(* ------------------------------------------------------------------ *)

let test_pla_shape () =
  let spec = { Pla.inputs = 10; outputs = 6; products = 30; literals = 4; terms_per_output = 5 } in
  let g = Pla.generate (Rng.create 7) spec in
  Alcotest.(check int) "inputs" 10 (Aig.num_pis g);
  Alcotest.(check int) "outputs" 6 (Aig.num_pos g);
  Alcotest.(check bool) "has logic" true (Aig.num_ands g > 10)

let test_random_logic_shape () =
  let spec = { Random_logic.inputs = 12; outputs = 8; layers = 5; layer_width = 20; locality = 2 } in
  let g = Random_logic.generate (Rng.create 9) spec in
  Alcotest.(check int) "inputs" 12 (Aig.num_pis g);
  Alcotest.(check int) "outputs" 8 (Aig.num_pos g)

let test_duplicate_variants_equivalent () =
  let rng = Rng.create 11 in
  let spec = { Pla.inputs = 8; outputs = 4; products = 20; literals = 3; terms_per_output = 4 } in
  let g = Pla.generate rng spec in
  (* Every PO's duplicate is exact: only the extra POs of the internal
     near-miss pairs follow the original ones. *)
  let dup = Redundancy.inject ~exact_fraction:1.0 rng g in
  Alcotest.(check int) "one extra pi" (Aig.num_pis g + 1) (Aig.num_pis dup);
  let npos = Aig.num_pos g in
  (* Whatever the selector, the original POs are unchanged. *)
  for _ = 1 to 200 do
    let vec = Array.init 8 (fun _ -> Rng.bool rng) in
    let expected = Aig.eval_pos g vec in
    List.iter
      (fun sel ->
        let got =
          Array.sub (Aig.eval_pos dup (Array.append vec [| sel |])) 0 npos
        in
        Alcotest.(check (array bool)) "variant equals original" expected got)
      [ false; true ]
  done

let test_inject_near_miss_rare () =
  let rng = Rng.create 13 in
  let spec = { Pla.inputs = 12; outputs = 6; products = 25; literals = 3; terms_per_output = 4 } in
  let g = Pla.generate rng spec in
  let inj = Redundancy.inject ~exact_fraction:0.0 rng g in
  (* [inject] adds extra POs for the internal near-miss pairs; the first
     POs correspond to the original outputs. *)
  let npos = Aig.num_pos g in
  let original_pos aig vec = Array.sub (Aig.eval_pos aig vec) 0 npos in
  (* With exact_fraction 0, every PO's second variant (selected by
     sel = 0) is a near miss: under random vectors its outputs rarely
     differ from the original. *)
  let diffs = ref 0 and trials = 500 in
  for _ = 1 to trials do
    let vec = Array.init 12 (fun _ -> Rng.bool rng) in
    let expected = Aig.eval_pos g vec in
    let got = original_pos inj (Array.append vec [| false |]) in
    if expected <> got then incr diffs
  done;
  Alcotest.(check bool) "rarely differs" true (!diffs < trials / 5);
  (* sel=1 selects the untouched copy: exact. *)
  for _ = 1 to 100 do
    let vec = Array.init 12 (fun _ -> Rng.bool rng) in
    Alcotest.(check (array bool)) "sel=1 exact" (Aig.eval_pos g vec)
      (original_pos inj (Array.append vec [| true |]))
  done

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let test_suite_has_42 () =
  Alcotest.(check int) "42 benchmarks" 42 (List.length Suite.entries);
  Alcotest.(check int) "unique names" 42
    (List.length (List.sort_uniq compare Suite.names))

let test_suite_deterministic () =
  let a1 = Suite.aig "apex2" and a2 = Suite.aig "apex2" in
  Alcotest.(check int) "same ands" (Aig.num_ands a1) (Aig.num_ands a2);
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let vec = Array.init (Aig.num_pis a1) (fun _ -> Rng.bool rng) in
    Alcotest.(check (array bool)) "same function" (Aig.eval_pos a1 vec)
      (Aig.eval_pos a2 vec)
  done

let test_suite_lut_networks_valid () =
  (* Spot-check one benchmark per family. *)
  List.iter
    (fun name ->
      let net = Suite.lut_network name in
      Alcotest.(check bool) "k bound" true (N.max_fanin_arity net <= 6);
      Alcotest.(check bool) "non-trivial" true (N.num_gates net > 10);
      Alcotest.(check string) "named" name (N.name net))
    [ "apex2"; "alu4"; "voter"; "b14_C" ]

let test_suite_lut_matches_aig () =
  let aig = Suite.aig "cps" in
  let net = Suite.lut_network "cps" in
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    let vec = Array.init (Aig.num_pis aig) (fun _ -> Rng.bool rng) in
    Alcotest.(check (array bool)) "mapped equals aig" (Aig.eval_pos aig vec)
      (N.eval_pos net vec)
  done

let test_suite_stacked () =
  let net = Suite.lut_network "square" in
  let stacked = Suite.stacked_lut_network "square" in
  (* square stacks 7 copies *)
  Alcotest.(check int) "7x gates" (7 * N.num_gates net) (N.num_gates stacked);
  Alcotest.(check bool) "deeper" true
    (Simgen_network.Level.depth stacked > Simgen_network.Level.depth net)

let test_suite_unknown_name () =
  Alcotest.check_raises "unknown benchmark" Not_found (fun () ->
      ignore (Suite.aig "nonexistent"))

let test_suite_families () =
  let count f =
    List.length (List.filter (fun e -> e.Suite.family = f) Suite.entries)
  in
  Alcotest.(check int) "ITC'99 count" 12 (count Suite.Itc99);
  Alcotest.(check bool) "PLA family largest" true (count Suite.Mcnc_pla >= 15);
  let stacked = List.filter (fun e -> e.Suite.stack_copies <> None) Suite.entries in
  Alcotest.(check int) "9 stacked entries (Table 2 lower)" 9 (List.length stacked)

let () =
  Alcotest.run "benchgen"
    [
      ( "arith",
        [
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder;
          Alcotest.test_case "subtractor" `Quick test_subtractor;
          Alcotest.test_case "multiplier" `Quick test_multiplier;
          Alcotest.test_case "square" `Quick test_square;
          Alcotest.test_case "alu ops" `Quick test_alu_ops;
          Alcotest.test_case "cascades" `Quick test_cascades_have_depth;
        ] );
      ( "control",
        [
          Alcotest.test_case "decoder" `Quick test_decoder;
          Alcotest.test_case "priority encoder" `Quick test_priority_encoder;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "arbiter" `Quick test_arbiter_grants;
          Alcotest.test_case "control mix" `Quick test_control_mix_deterministic;
        ] );
      ( "generators",
        [
          Alcotest.test_case "pla shape" `Quick test_pla_shape;
          Alcotest.test_case "random logic shape" `Quick test_random_logic_shape;
          Alcotest.test_case "duplicate variants" `Quick
            test_duplicate_variants_equivalent;
          Alcotest.test_case "near-miss injection" `Quick test_inject_near_miss_rare;
        ] );
      ( "suite",
        [
          Alcotest.test_case "42 entries" `Quick test_suite_has_42;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
          Alcotest.test_case "lut networks" `Quick test_suite_lut_networks_valid;
          Alcotest.test_case "lut matches aig" `Quick test_suite_lut_matches_aig;
          Alcotest.test_case "stacked" `Quick test_suite_stacked;
          Alcotest.test_case "unknown name" `Quick test_suite_unknown_name;
          Alcotest.test_case "families" `Quick test_suite_families;
        ] );
    ]
