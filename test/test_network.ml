module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Level = Simgen_network.Level
module Cone = Simgen_network.Cone
module Mffc = Simgen_network.Mffc
module Blif = Simgen_network.Blif
module Bench = Simgen_network.Bench_format
module Stack = Simgen_network.Stack_networks
module Rng = Simgen_base.Rng

let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)
let tt_xor2 = TT.xor (TT.var 0 2) (TT.var 1 2)
let tt_not = TT.not_ (TT.var 0 1)

(* A small reference network:
   pis a b c; x = a & b; y = b | c; z = x ^ y; pos: z, x *)
let small () =
  let net = N.create ~name:"small" () in
  let a = N.add_pi ~name:"a" net in
  let b = N.add_pi ~name:"b" net in
  let c = N.add_pi ~name:"c" net in
  let x = N.add_gate ~name:"x" net tt_and2 [| a; b |] in
  let y = N.add_gate ~name:"y" net tt_or2 [| b; c |] in
  let z = N.add_gate ~name:"z" net tt_xor2 [| x; y |] in
  N.add_po ~name:"z" net z;
  N.add_po ~name:"x" net x;
  (net, (a, b, c, x, y, z))

(* Random LUT network for property tests. *)
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
    let f = TT.random rng arity in
    ids := N.add_gate net f fanins :: !ids
  done;
  let pool = Array.of_list !ids in
  for _ = 1 to 3 do
    N.add_po net (Rng.choose rng pool)
  done;
  net

(* ------------------------------------------------------------------ *)
(* Core network invariants                                             *)
(* ------------------------------------------------------------------ *)

let test_counts () =
  let net, _ = small () in
  Alcotest.(check int) "pis" 3 (N.num_pis net);
  Alcotest.(check int) "pos" 2 (N.num_pos net);
  Alcotest.(check int) "gates" 3 (N.num_gates net);
  Alcotest.(check int) "nodes" 6 (N.num_nodes net);
  Alcotest.(check int) "max arity" 2 (N.max_fanin_arity net)

let test_kinds_and_names () =
  let net, (a, _, _, x, _, _) = small () in
  Alcotest.(check bool) "a is pi" true (N.is_pi net a);
  Alcotest.(check bool) "x not pi" false (N.is_pi net x);
  Alcotest.(check (option string)) "name" (Some "x") (N.node_name net x);
  Alcotest.(check (option string)) "po name" (Some "z") (N.po_name net 0)

let test_fanouts () =
  let net, (a, b, _, x, y, z) = small () in
  Alcotest.(check (list int)) "b feeds x and y" [ x; y ] (N.fanouts net b);
  Alcotest.(check (list int)) "a feeds x" [ x ] (N.fanouts net a);
  Alcotest.(check (list int)) "x feeds z" [ z ] (N.fanouts net x);
  Alcotest.(check int) "z has no fanouts" 0 (List.length (N.fanouts net z))

let test_eval () =
  let net, (_, _, _, x, _, z) = small () in
  (* a=1 b=1 c=0: x=1 y=1 z=0 *)
  let vals = N.eval net [| true; true; false |] in
  Alcotest.(check bool) "x" true vals.(x);
  Alcotest.(check bool) "z" false vals.(z);
  let pos = N.eval_pos net [| true; false; true |] in
  (* x=0 y=1 z=1 *)
  Alcotest.(check (array bool)) "pos" [| true; false |] pos

let test_copy_equivalent () =
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let net = random_net rng 4 12 in
    let net' = N.copy net in
    for m = 0 to 15 do
      let vec = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
      Alcotest.(check (array bool)) "same POs" (N.eval_pos net vec)
        (N.eval_pos net' vec)
    done
  done

let test_add_gate_validation () =
  let net = N.create () in
  let a = N.add_pi net in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Network.add_gate: arity mismatch") (fun () ->
      ignore (N.add_gate net tt_and2 [| a |]));
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Network.add_gate: bad fanin") (fun () ->
      ignore (N.add_gate net tt_and2 [| a; 99 |]))

(* ------------------------------------------------------------------ *)
(* Levels                                                              *)
(* ------------------------------------------------------------------ *)

let test_levels () =
  let net, (a, _, _, x, y, z) = small () in
  let levels = Level.compute net in
  Alcotest.(check int) "pi level" 0 levels.(a);
  Alcotest.(check int) "x level" 1 levels.(x);
  Alcotest.(check int) "y level" 1 levels.(y);
  Alcotest.(check int) "z level" 2 levels.(z);
  Alcotest.(check int) "depth" 2 (Level.depth net)

let test_levels_monotone () =
  let rng = Rng.create 7 in
  for _ = 1 to 10 do
    let net = random_net rng 5 30 in
    let levels = Level.compute net in
    N.iter_gates net (fun id ->
        Array.iter
          (fun fi ->
            Alcotest.(check bool) "level > fanin level" true
              (levels.(id) > levels.(fi) || Array.length (N.fanins net id) = 0))
          (N.fanins net id))
  done

(* ------------------------------------------------------------------ *)
(* Cones                                                               *)
(* ------------------------------------------------------------------ *)

let test_fanin_cone () =
  let net, (a, b, c, x, y, z) = small () in
  Alcotest.(check (list int)) "cone of z" [ a; b; x; c; y; z ]
    (Cone.fanin_cone_many net [ z ]);
  Alcotest.(check (list int)) "cone of x" [ a; b; x ] (Cone.fanin_cone_many net [ x ]);
  Alcotest.(check (list int)) "cone pis" [ a; b; c ]
    (List.filter (N.is_pi net) (Cone.fanin_cone_many net [ z ]))

let test_cone_order_property () =
  let rng = Rng.create 11 in
  for _ = 1 to 10 do
    let net = random_net rng 5 30 in
    let target = N.num_nodes net - 1 in
    let cone = Cone.fanin_cone_many net [ target ] in
    (* Fanins-first: each node's fanins appear earlier in the list. *)
    let pos = Hashtbl.create 16 in
    List.iteri (fun i id -> Hashtbl.replace pos id i) cone;
    List.iter
      (fun id ->
        Array.iter
          (fun fi ->
            Alcotest.(check bool) "fanin before node" true
              (Hashtbl.find pos fi < Hashtbl.find pos id))
          (N.fanins net id))
      cone
  done

let test_member_mask () =
  let net, (a, _, _, x, _, _) = small () in
  let mask = Cone.member_mask net [ a; x ] in
  Alcotest.(check bool) "a in" true mask.(a);
  Alcotest.(check bool) "x in" true mask.(x);
  Alcotest.(check int) "two members" 2
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask)

(* ------------------------------------------------------------------ *)
(* MFFC                                                                *)
(* ------------------------------------------------------------------ *)

let test_mffc_shared_node_excluded () =
  (* y feeds both z and a second PO cone; x feeds only z. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x = N.add_gate net tt_not [| a |] in
  let y = N.add_gate net tt_not [| b |] in
  let z = N.add_gate net tt_and2 [| x; y |] in
  let w = N.add_gate net tt_not [| y |] in
  N.add_po net z;
  N.add_po net w;
  let mffc_z = Mffc.compute net z in
  Alcotest.(check bool) "x in MFFC(z)" true (List.mem x mffc_z);
  Alcotest.(check bool) "y not in MFFC(z)" false (List.mem y mffc_z);
  Alcotest.(check bool) "root in MFFC" true (List.mem z mffc_z)

let test_mffc_pi () =
  let net, (a, _, _, _, _, _) = small () in
  Alcotest.(check (list int)) "PI has empty MFFC" [] (Mffc.compute net a)

let test_mffc_subset_of_cone () =
  let rng = Rng.create 13 in
  for _ = 1 to 10 do
    let net = random_net rng 5 30 in
    N.iter_gates net (fun id ->
        let mffc = Mffc.compute net id in
        let cone = Cone.fanin_cone_many net [ id ] in
        List.iter
          (fun m ->
            Alcotest.(check bool) "member of cone" true (List.mem m cone);
            Alcotest.(check bool) "member is a gate" false (N.is_pi net m))
          mffc)
  done

let test_mffc_fanout_closure () =
  (* Non-root members' fanouts all stay inside the MFFC. *)
  let rng = Rng.create 17 in
  for _ = 1 to 10 do
    let net = random_net rng 5 30 in
    N.iter_gates net (fun id ->
        let mffc = Mffc.compute net id in
        List.iter
          (fun m ->
            if m <> id then
              List.iter
                (fun fo ->
                  Alcotest.(check bool) "fanout inside" true (List.mem fo mffc))
                (N.fanouts net m))
          mffc)
  done

let test_mffc_depth_figure4c () =
  (* Figure 4c: the left MFFC is the single gate x (depth 0); the right
     one has leaves at levels 1, 2, 3 with output level 3 -> depth 1. *)
  let net = N.create () in
  let p1 = N.add_pi net in
  let p2 = N.add_pi net in
  let p3 = N.add_pi net in
  let p4 = N.add_pi net in
  (* Right cone: m (level1), n (level2), y (level3), out r (level 4)... we
     reproduce levels 1,2,3 with output at level 3: leaves m,n,y where y is
     also the output?  Simpler: build cone with chain m->n->r and leaf y
     feeding r; levels: m=1, n=2, y=3 impossible for leaf...  Instead test
     the formula directly on a chain: root at level 3 with leaves at
     levels 1 and 3 -> depth (2+0)/2 = 1. *)
  let l1 = N.add_gate net tt_not [| p1 |] in
  (* level 1, leaf *)
  let l2 = N.add_gate net tt_and2 [| l1; p2 |] in
  (* level 2 *)
  let y3 = N.add_gate net (TT.and_ (TT.var 0 3) (TT.and_ (TT.var 1 3) (TT.var 2 3)))
      [| p3; p4; l2 |]
  in
  (* level 3: root *)
  N.add_po net y3;
  let levels = Level.compute net in
  Alcotest.(check int) "root level" 3 levels.(y3);
  (* MFFC(y3) = {l1; l2; y3}; leaves = {l1}; depth = 3-1 = 2 *)
  let d = Mffc.depth net levels y3 in
  Alcotest.(check (float 0.001)) "depth" 2.0 d;
  (* Singleton MFFC: a gate whose fanins are PIs has depth 0. *)
  Alcotest.(check (float 0.001)) "singleton depth" 0.0
    (Mffc.depth net levels l1)

let test_mffc_cache_consistency () =
  let rng = Rng.create 19 in
  let net = random_net rng 5 30 in
  let cache = Mffc.cache net in
  let levels = Level.compute net in
  N.iter_gates net (fun id ->
      Alcotest.(check (float 0.0001))
        "cached = direct"
        (Mffc.depth net levels id)
        (Mffc.cached_depth cache id))

(* ------------------------------------------------------------------ *)
(* BLIF round trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_blif_roundtrip_functional () =
  let rng = Rng.create 23 in
  for _ = 1 to 10 do
    let net = random_net rng 4 15 in
    let text = Blif.to_string net in
    let net' = Blif.parse_string text in
    Alcotest.(check int) "pis" (N.num_pis net) (N.num_pis net');
    Alcotest.(check int) "pos" (N.num_pos net) (N.num_pos net');
    for m = 0 to 15 do
      let vec = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
      Alcotest.(check (array bool)) "functional" (N.eval_pos net vec)
        (N.eval_pos net' vec)
    done
  done

let test_blif_parse_handwritten () =
  let text =
    ".model test\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
     .names x c f\n1- 1\n-1 1\n.end\n"
  in
  let net = Blif.parse_string text in
  Alcotest.(check int) "pis" 3 (N.num_pis net);
  (* f = (a & b) | c *)
  let check a b c expected =
    Alcotest.(check (array bool)) "f" [| expected |] (N.eval_pos net [| a; b; c |])
  in
  check true true false true;
  check false true false false;
  check false false true true

let test_blif_offset_cover () =
  (* Off-set rows (output 0). f = NOT(a). *)
  let text = ".model t\n.inputs a\n.outputs f\n.names a f\n1 0\n.end\n" in
  let net = Blif.parse_string text in
  Alcotest.(check (array bool)) "f(1)=0" [| false |] (N.eval_pos net [| true |]);
  Alcotest.(check (array bool)) "f(0)=1" [| true |] (N.eval_pos net [| false |])

let test_blif_const () =
  let text = ".model t\n.inputs a\n.outputs f g\n.names f\n1\n.names g\n.end\n" in
  let net = Blif.parse_string text in
  Alcotest.(check (array bool)) "consts" [| true; false |]
    (N.eval_pos net [| false |])

let test_blif_errors () =
  let bad s =
    match Blif.parse_string s with
    | exception Blif.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "undefined signal" true
    (bad ".model t\n.inputs a\n.outputs f\n.end\n");
  Alcotest.(check bool) "loop" true
    (bad ".model t\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n");
  Alcotest.(check bool) "latch" true (bad ".model t\n.latch a b\n.end\n")

(* ------------------------------------------------------------------ *)
(* BENCH round trip                                                    *)
(* ------------------------------------------------------------------ *)

let test_bench_roundtrip_functional () =
  let rng = Rng.create 29 in
  for _ = 1 to 10 do
    let net = random_net rng 4 15 in
    let net' = Bench.parse_string (Bench.to_string net) in
    for m = 0 to 15 do
      let vec = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
      Alcotest.(check (array bool)) "functional" (N.eval_pos net vec)
        (N.eval_pos net' vec)
    done
  done

let test_bench_parse_handwritten () =
  let text =
    "# comment\nINPUT(a)\nINPUT(b)\nOUTPUT(f)\nx = NAND(a, b)\nf = NOT(x)\n"
  in
  let net = Bench.parse_string text in
  (* f = a & b *)
  Alcotest.(check (array bool)) "11" [| true |] (N.eval_pos net [| true; true |]);
  Alcotest.(check (array bool)) "10" [| false |] (N.eval_pos net [| true; false |])

let test_bench_wide_gates () =
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(f)\nf = XOR(a, b, c)\n"
  in
  let net = Bench.parse_string text in
  Alcotest.(check (array bool)) "parity 111" [| true |]
    (N.eval_pos net [| true; true; true |]);
  Alcotest.(check (array bool)) "parity 110" [| false |]
    (N.eval_pos net [| true; true; false |])

(* ------------------------------------------------------------------ *)
(* Stacking                                                            *)
(* ------------------------------------------------------------------ *)

let test_stack_identity () =
  let net, _ = small () in
  let s1 = Stack.stack net 1 in
  Alcotest.(check int) "same pis" (N.num_pis net) (N.num_pis s1);
  Alcotest.(check int) "same gates" (N.num_gates net) (N.num_gates s1);
  for m = 0 to 7 do
    let vec = Array.init 3 (fun i -> (m lsr i) land 1 = 1) in
    Alcotest.(check (array bool)) "same function" (N.eval_pos net vec)
      (N.eval_pos s1 vec)
  done

let test_stack_growth () =
  let net, _ = small () in
  let s3 = Stack.stack net 3 in
  Alcotest.(check int) "3x gates" (3 * N.num_gates net) (N.num_gates s3);
  Alcotest.(check bool) "deeper" true (Level.depth s3 > Level.depth net)

let test_stack_pi_padding () =
  (* small has 3 PIs and 2 POs: each next copy needs one extra PI. *)
  let net, _ = small () in
  let s2 = Stack.stack net 2 in
  Alcotest.(check int) "pi padding" (3 + 1) (N.num_pis s2);
  Alcotest.(check int) "pos" 2 (N.num_pos s2)

let test_stack_po_surplus () =
  (* A net with 1 PI and 2 POs: stacking exposes surplus POs. *)
  let net = N.create () in
  let a = N.add_pi net in
  let x = N.add_gate net tt_not [| a |] in
  N.add_po net x;
  N.add_po net a;
  let s2 = Stack.stack net 2 in
  (* copy1 surplus: 1 PO; copy2 (last): 2 POs -> total 3. *)
  Alcotest.(check int) "pos" 3 (N.num_pos s2);
  Alcotest.(check int) "pis" 1 (N.num_pis s2)

let () =
  Alcotest.run "network"
    [
      ( "network",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "kinds/names" `Quick test_kinds_and_names;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "copy" `Quick test_copy_equivalent;
          Alcotest.test_case "validation" `Quick test_add_gate_validation;
        ] );
      ( "levels",
        [
          Alcotest.test_case "small" `Quick test_levels;
          Alcotest.test_case "monotone" `Quick test_levels_monotone;
        ] );
      ( "cones",
        [
          Alcotest.test_case "fanin cone" `Quick test_fanin_cone;
          Alcotest.test_case "order property" `Quick test_cone_order_property;
          Alcotest.test_case "member mask" `Quick test_member_mask;
        ] );
      ( "mffc",
        [
          Alcotest.test_case "shared node excluded" `Quick
            test_mffc_shared_node_excluded;
          Alcotest.test_case "pi" `Quick test_mffc_pi;
          Alcotest.test_case "subset of cone" `Quick test_mffc_subset_of_cone;
          Alcotest.test_case "fanout closure" `Quick test_mffc_fanout_closure;
          Alcotest.test_case "depth formula" `Quick test_mffc_depth_figure4c;
          Alcotest.test_case "cache" `Quick test_mffc_cache_consistency;
        ] );
      ( "blif",
        [
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip_functional;
          Alcotest.test_case "handwritten" `Quick test_blif_parse_handwritten;
          Alcotest.test_case "offset cover" `Quick test_blif_offset_cover;
          Alcotest.test_case "constants" `Quick test_blif_const;
          Alcotest.test_case "errors" `Quick test_blif_errors;
        ] );
      ( "bench",
        [
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip_functional;
          Alcotest.test_case "handwritten" `Quick test_bench_parse_handwritten;
          Alcotest.test_case "wide gates" `Quick test_bench_wide_gates;
        ] );
      ( "stack",
        [
          Alcotest.test_case "identity" `Quick test_stack_identity;
          Alcotest.test_case "growth" `Quick test_stack_growth;
          Alcotest.test_case "pi padding" `Quick test_stack_pi_padding;
          Alcotest.test_case "po surplus" `Quick test_stack_po_surplus;
        ] );
    ]
