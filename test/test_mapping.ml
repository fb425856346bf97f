module Aig = Simgen_aig.Aig
module Cut = Simgen_mapping.Cut
module Mapper = Simgen_mapping.Lut_mapper
module N = Simgen_network.Network
module Blif = Simgen_network.Blif
module Rng = Simgen_base.Rng
module Suite = Simgen_benchgen.Suite

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

(* ------------------------------------------------------------------ *)
(* Cut                                                                 *)
(* ------------------------------------------------------------------ *)

let cut leaves = Cut.make leaves ~depth:0 ~area_flow:0.0

let test_merge_within_limit () =
  let a = cut [| 1; 3; 5 |] and b = cut [| 2; 3; 6 |] in
  (match Cut.merge 6 a b with
   | Some leaves -> Alcotest.(check (array int)) "union" [| 1; 2; 3; 5; 6 |] leaves
   | None -> Alcotest.fail "merge should fit");
  Alcotest.(check bool) "overflow rejected" true (Cut.merge 4 a b = None)

let test_dominance () =
  let a = cut [| 1; 3 |] and b = cut [| 1; 2; 3 |] in
  Alcotest.(check bool) "subset dominates" true (Cut.dominates a b);
  Alcotest.(check bool) "superset does not" false (Cut.dominates b a);
  Alcotest.(check bool) "self dominates" true (Cut.dominates a a)

(* Leaf ids 1, 63 and 125 share signature bit 1 (id mod 62), so the
   signature alone cannot tell these cuts apart: the answers must come
   from the leaves. *)
let test_signature_collisions () =
  let a = cut [| 1 |] and b = cut [| 63 |] and c = cut [| 1; 125 |] in
  Alcotest.(check (option (array int)))
    "colliding leaves count twice" (Some [| 1; 63 |]) (Cut.merge 2 a b);
  Alcotest.(check (option (array int)))
    "three colliding leaves exceed k = 2" None (Cut.merge 2 b c);
  Alcotest.(check (option (array int)))
    "three colliding leaves fit k = 3" (Some [| 1; 63; 125 |])
    (Cut.merge 3 b c);
  Alcotest.(check bool) "same bit, other leaf" false (Cut.dominates b c);
  Alcotest.(check bool) "same bit, subset" true (Cut.dominates a c);
  Alcotest.(check bool) "same bit, superset" false (Cut.dominates c a)

(* A union of exactly [k] leaves is accepted and one of [k + 1] refused,
   both when the signature decides (distinct bits) and when only the
   leaves can (ids sharing bits). *)
let test_merge_exact_limit () =
  List.iter
    (fun (what, xs, ys) ->
      let k = Array.length xs + Array.length ys in
      Alcotest.(check (option (array int)))
        (what ^ ": k leaves fit") (Some (Array.append xs ys))
        (Cut.merge k (cut xs) (cut ys));
      Alcotest.(check (option (array int)))
        (what ^ ": k + 1 leaves refused") None
        (Cut.merge (k - 1) (cut xs) (cut ys)))
    [
      ("two and two", [| 1; 2 |], [| 3; 4 |]);
      ("distinct bits", [| 1; 2; 3 |], [| 4; 5; 6 |]);
      ("shared bits", [| 1; 2; 3 |], [| 63; 64; 65 |]);
      ("one bit", [| 0; 62 |], [| 124; 186 |]);
    ]

let test_quality_order () =
  let shallow = Cut.make [| 1; 2; 3 |] ~depth:1 ~area_flow:9.0 in
  let deep = Cut.make [| 1 |] ~depth:2 ~area_flow:0.0 in
  Alcotest.(check bool) "depth first" true (Cut.compare_quality shallow deep < 0);
  let cheap = Cut.make [| 1; 2 |] ~depth:1 ~area_flow:1.0 in
  Alcotest.(check bool) "area tie-break" true
    (Cut.compare_quality cheap shallow < 0)

(* ------------------------------------------------------------------ *)
(* Mapper                                                              *)
(* ------------------------------------------------------------------ *)

let test_map_equivalence () =
  let rng = Rng.create 61 in
  for _ = 1 to 25 do
    let npis = 4 + Rng.int rng 6 in
    let aig = random_aig rng npis (20 + Rng.int rng 150) 4 in
    let net = Mapper.map ~k:6 aig in
    let trials = if npis <= 9 then 1 lsl npis else 256 in
    for t = 0 to trials - 1 do
      let vec =
        Array.init npis (fun i ->
            if npis <= 9 then (t lsr i) land 1 = 1 else Rng.bool rng)
      in
      Alcotest.(check (array bool)) "equivalent" (Aig.eval_pos aig vec)
        (N.eval_pos net vec)
    done
  done

let test_map_arity_bound () =
  let rng = Rng.create 67 in
  List.iter
    (fun k ->
      let aig = random_aig rng 8 120 4 in
      let net = Mapper.map ~k aig in
      Alcotest.(check bool)
        (Printf.sprintf "arity <= %d" k)
        true
        (N.max_fanin_arity net <= k))
    [ 2; 3; 4; 6 ]

let test_map_smaller_than_aig () =
  (* 6-LUTs cover multiple AND nodes: LUT count must be well below the AND
     count on a non-trivial circuit. *)
  let rng = Rng.create 71 in
  let aig = random_aig rng 8 200 4 in
  let net, stats = Mapper.map_with_stats ~k:6 aig in
  Alcotest.(check bool) "fewer LUTs than ANDs" true
    (stats.Mapper.luts < Aig.num_ands aig);
  Alcotest.(check int) "stats consistent" (N.num_gates net) stats.Mapper.luts

let test_map_depth_bound () =
  (* LUT depth can never exceed AIG depth. *)
  let rng = Rng.create 73 in
  for _ = 1 to 10 do
    let aig = random_aig rng 6 100 4 in
    let levels = Aig.level aig in
    let aig_depth =
      Array.fold_left
        (fun acc l -> max acc levels.(Aig.node_of_lit l))
        0 (Aig.pos aig)
    in
    let _, stats = Mapper.map_with_stats ~k:6 aig in
    Alcotest.(check bool) "lut depth <= aig depth" true
      (stats.Mapper.depth <= aig_depth)
  done

let test_map_constant_po () =
  let aig = Aig.create () in
  let a = Aig.add_pi aig in
  Aig.add_po aig Aig.false_;
  Aig.add_po aig Aig.true_;
  Aig.add_po aig (Aig.not_ a);
  let net = Mapper.map aig in
  Alcotest.(check (array bool)) "const + inverted pi" [| false; true; true |]
    (N.eval_pos net [| false |]);
  Alcotest.(check (array bool)) "inverted pi on 1" [| false; true; false |]
    (N.eval_pos net [| true |])

let test_map_po_to_pi () =
  let aig = Aig.create () in
  let a = Aig.add_pi aig in
  Aig.add_po aig a;
  let net = Mapper.map aig in
  Alcotest.(check (array bool)) "buffer" [| true |] (N.eval_pos net [| true |])

let test_map_wide_conjunction () =
  (* 12-input AND maps into a small 6-LUT tree. *)
  let aig = Aig.create () in
  let xs = Array.init 12 (fun _ -> Aig.add_pi aig) in
  Aig.add_po aig (Aig.and_list aig (Array.to_list xs));
  let net, stats = Mapper.map_with_stats ~k:6 aig in
  Alcotest.(check bool) "few luts" true (stats.Mapper.luts <= 4);
  let all_true = Array.make 12 true in
  Alcotest.(check (array bool)) "all ones" [| true |] (N.eval_pos net all_true);
  all_true.(7) <- false;
  Alcotest.(check (array bool)) "one zero" [| false |] (N.eval_pos net all_true)

(* ------------------------------------------------------------------ *)
(* Golden                                                              *)
(* ------------------------------------------------------------------ *)

(* Each line of golden/mapping.txt is one suite circuit mapped at one K:
   the mapper's LUT count, depth and edge count, and a digest of the
   network's BLIF text, so a change to any cover, truth table or node
   order shows up as a changed line.

   Regenerate (only when a mapping change is intended) with
     dune exec test/test_mapping.exe -- --write test/golden/mapping.txt *)

let golden_ks = [ 4; 6 ]

let golden_lines () =
  List.concat_map
    (fun name ->
      List.map
        (fun k ->
          let net, s = Mapper.map_with_stats ~k (Suite.aig name) in
          N.set_name net name;
          let digest =
            String.sub (Digest.to_hex (Digest.string (Blif.to_string net))) 0 12
          in
          Printf.sprintf "%s k=%d luts=%d depth=%d edges=%d blif=%s" name k
            s.Mapper.luts s.Mapper.depth s.Mapper.edges digest)
        golden_ks)
    Suite.names

let golden_path =
  if Sys.file_exists "golden/mapping.txt" then "golden/mapping.txt"
  else "test/golden/mapping.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden () =
  Alcotest.(check (list string))
    "mapped suite matches the golden file" (read_lines golden_path)
    (golden_lines ())

let () =
  match Sys.argv with
  | [| _; "--write"; path |] ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (golden_lines ()))
  | _ ->
      Alcotest.run "mapping"
        [
          ( "cut",
            [
              Alcotest.test_case "merge" `Quick test_merge_within_limit;
              Alcotest.test_case "merge exact" `Quick test_merge_exact_limit;
              Alcotest.test_case "dominance" `Quick test_dominance;
              Alcotest.test_case "signature collisions" `Quick
                test_signature_collisions;
              Alcotest.test_case "quality order" `Quick test_quality_order;
            ] );
          ( "mapper",
            [
              Alcotest.test_case "equivalence" `Quick test_map_equivalence;
              Alcotest.test_case "arity bound" `Quick test_map_arity_bound;
              Alcotest.test_case "compression" `Quick test_map_smaller_than_aig;
              Alcotest.test_case "depth bound" `Quick test_map_depth_bound;
              Alcotest.test_case "constant po" `Quick test_map_constant_po;
              Alcotest.test_case "po to pi" `Quick test_map_po_to_pi;
              Alcotest.test_case "wide conjunction" `Quick test_map_wide_conjunction;
            ] );
          ("golden", [ Alcotest.test_case "suite" `Quick test_golden ]);
        ]
