module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Fault = Simgen_atpg.Fault
module Tpg = Simgen_atpg.Tpg
module Simulator = Simgen_sim.Simulator

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

(* c = a & b feeding the only PO. *)
let and_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let c = N.add_gate ~name:"c" net tt_and2 [| a; b |] in
  N.add_po net c;
  (net, c)

let test_fault_list () =
  let net, _ = and_net () in
  let faults = Fault.all_gate_faults net in
  Alcotest.(check int) "two polarities per gate" 2 (List.length faults)

let test_to_string () =
  let net, c = and_net () in
  Alcotest.(check string) "named" "c/SA1"
    (Fault.to_string net { Fault.node = c; stuck = true })

let test_detects_and_gate () =
  let net, c = and_net () in
  let sa0 = { Fault.node = c; stuck = false } in
  let sa1 = { Fault.node = c; stuck = true } in
  (* SA0 detected only by 11; SA1 by anything that is not 11. *)
  Alcotest.(check bool) "sa0 by 11" true (Fault.detects net sa0 [| true; true |]);
  Alcotest.(check bool) "sa0 not by 10" false (Fault.detects net sa0 [| true; false |]);
  Alcotest.(check bool) "sa1 by 10" true (Fault.detects net sa1 [| true; false |]);
  Alcotest.(check bool) "sa1 not by 11" false (Fault.detects net sa1 [| true; true |])

let test_detects_word_matches_scalar () =
  let rng = Rng.create 31 in
  for _ = 1 to 10 do
    let net = random_net rng 5 15 in
    let faults = Fault.all_gate_faults net in
    let pi_words = Simulator.random_word rng net in
    List.iteri
      (fun i fault ->
        if i mod 7 = 0 then begin
          let word = Fault.detects_word net fault pi_words in
          for lane = 0 to 7 do
            let vec =
              Array.init 5 (fun k ->
                  Int64.logand (Int64.shift_right_logical pi_words.(k) lane) 1L
                  = 1L)
            in
            let expected = Fault.detects net fault vec in
            let got =
              Int64.logand (Int64.shift_right_logical word lane) 1L = 1L
            in
            Alcotest.(check bool) "word lane = scalar" expected got
          done
        end)
      faults
  done

let test_detects_word_wide_gates () =
  (* Same check in all 64 lanes, on networks of 6- and 7-input gates:
     the single-word kernel at full width and the mux tree across table
     words, both with the fault site forced. *)
  let rng = Rng.create 47 in
  for _ = 1 to 6 do
    let net = N.create () in
    let ids = ref (List.init 8 (fun _ -> N.add_pi net)) in
    for _ = 1 to 12 do
      let pool = Array.of_list !ids in
      let arity = 6 + Rng.int rng 2 in
      let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
      ids := N.add_gate net (TT.random rng arity) fanins :: !ids
    done;
    List.iteri (fun i id -> if i < 3 then N.add_po net id) !ids;
    let pi_words = Simulator.random_word rng net in
    List.iter
      (fun fault ->
        let word = Fault.detects_word net fault pi_words in
        for lane = 0 to 63 do
          let vec =
            Array.init 8 (fun k ->
                Int64.logand (Int64.shift_right_logical pi_words.(k) lane) 1L
                = 1L)
          in
          Alcotest.(check bool) "wide word lane = scalar"
            (Fault.detects net fault vec)
            (Int64.logand (Int64.shift_right_logical word lane) 1L = 1L)
        done)
      (Fault.all_gate_faults net)
  done

(* The faults no input vector detects, by exhaustive simulation. *)
let undetectable net npis =
  List.filter
    (fun fault ->
      not
        (List.exists
           (fun m ->
             Fault.detects net fault (Array.init npis (fun i -> (m lsr i) land 1 = 1)))
           (List.init (1 lsl npis) Fun.id)))
    (Fault.all_gate_faults net)

let test_masked_fault_undetectable () =
  (* g = x OR (NOT x) is constant 1: a SA1 on g, and a SA1 on NOT x
     (which pins g to 1), change nothing. *)
  let net = N.create () in
  let x = N.add_pi net in
  let nx = N.add_gate net (TT.not_ (TT.var 0 1)) [| x |] in
  let g = N.add_gate net tt_or2 [| x; nx |] in
  N.add_po net g;
  Alcotest.(check int) "two masked faults" 2 (List.length (undetectable net 1));
  let stats = Tpg.campaign ~seed:1 net in
  Alcotest.(check int) "both proved untestable" 2 stats.Tpg.untestable;
  Alcotest.(check int) "both SAT-decided" 2 stats.Tpg.sat_calls

let test_sat_generation_random () =
  (* The SAT tier decides exactly: the faults it proves untestable are
     the ones exhaustive simulation never detects. *)
  let rng = Rng.create 37 in
  for seed = 1 to 8 do
    let net = random_net rng 4 12 in
    let stats = Tpg.campaign ~seed net in
    Alcotest.(check int) "untestable = exhaustively undetectable"
      (List.length (undetectable net 4))
      stats.Tpg.untestable
  done

let test_guided_generation_valid () =
  (* Every fault a tier detects is detectable (exhaustively checked) on
     random networks, where random patterns catch nearly everything ... *)
  let rng = Rng.create 41 in
  for seed = 1 to 10 do
    let net = random_net rng 5 15 in
    let stats = Tpg.campaign ~seed net in
    Alcotest.(check int) "detected = exhaustively detectable"
      (stats.Tpg.total - List.length (undetectable net 5))
      (stats.Tpg.by_random + stats.Tpg.by_guided + stats.Tpg.by_sat)
  done;
  (* ... and on an AND chain over 12 PIs, whose deep stuck-at-0 faults
     need the all-ones vector: guided activation finds it. *)
  let net = N.create () in
  let pis = List.init 12 (fun _ -> N.add_pi net) in
  N.add_po net
    (List.fold_left
       (fun acc x -> N.add_gate net tt_and2 [| acc; x |])
       (List.hd pis) (List.tl pis));
  let stats = Tpg.campaign ~seed:1 net in
  Alcotest.(check int) "every chain fault detected" stats.Tpg.total
    (stats.Tpg.by_random + stats.Tpg.by_guided + stats.Tpg.by_sat);
  Alcotest.(check bool) "the guided tier detects some" true
    (stats.Tpg.by_guided > 0)

let test_campaign_accounting () =
  let rng = Rng.create 43 in
  let net = random_net rng 5 20 in
  let stats = Tpg.campaign ~seed:3 net in
  Alcotest.(check int) "tiers partition the fault list" stats.Tpg.total
    (stats.Tpg.by_random + stats.Tpg.by_guided + stats.Tpg.by_sat
    + stats.Tpg.untestable);
  Alcotest.(check int) "total = 2 * gates" (2 * N.num_gates net) stats.Tpg.total;
  (* SAT calls only for the faults the cheap tiers missed. *)
  Alcotest.(check int) "sat calls" (stats.Tpg.by_sat + stats.Tpg.untestable)
    stats.Tpg.sat_calls

let test_campaign_xor_tree () =
  (* XOR trees: every fault is testable (XOR propagates everything). *)
  let net = N.create () in
  let pis = Array.init 8 (fun _ -> N.add_pi net) in
  let rec tree = function
    | [] -> assert false
    | [ x ] -> x
    | x :: y :: rest -> tree (rest @ [ N.add_gate net tt_xor2 [| x; y |] ])
  in
  N.add_po net (tree (Array.to_list pis));
  let stats = Tpg.campaign ~seed:1 net in
  Alcotest.(check int) "no untestable fault in a xor tree" 0
    stats.Tpg.untestable

let () =
  Alcotest.run "atpg"
    [
      ( "fault",
        [
          Alcotest.test_case "fault list" `Quick test_fault_list;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "and gate" `Quick test_detects_and_gate;
          Alcotest.test_case "word = scalar" `Quick
            test_detects_word_matches_scalar;
          Alcotest.test_case "word = scalar, wide gates" `Quick
            test_detects_word_wide_gates;
        ] );
      ( "tpg",
        [
          Alcotest.test_case "masked fault" `Quick test_masked_fault_undetectable;
          Alcotest.test_case "sat generation" `Quick test_sat_generation_random;
          Alcotest.test_case "guided generation" `Quick
            test_guided_generation_valid;
          Alcotest.test_case "campaign accounting" `Quick
            test_campaign_accounting;
          Alcotest.test_case "xor tree" `Quick test_campaign_xor_tree;
        ] );
    ]
