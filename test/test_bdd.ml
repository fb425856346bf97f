module Bdd = Simgen_bdd.Bdd
module TT = Simgen_network.Truth_table
module N = Simgen_network.Network
module Rng = Simgen_base.Rng
module Backend = Simgen_sweep.Bdd_backend
module Sat_session = Simgen_sweep.Sat_session

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

(* ------------------------------------------------------------------ *)
(* Basic algebra                                                       *)
(* ------------------------------------------------------------------ *)

(* The BDD of [tt] with input [i] on variable [i]: one gate over as many
   PIs. *)
let bdd_of_table m tt =
  let net = N.create () in
  let pis = Array.init (TT.nvars tt) (fun _ -> N.add_pi net) in
  let g = N.add_gate net tt pis in
  (Bdd.build_network m net).(g)

let test_terminals () =
  let m = Bdd.manager 3 in
  Alcotest.(check bool) "zero is zero" true (Bdd.is_zero m (Bdd.zero m));
  Alcotest.(check bool) "one is one" true (Bdd.is_one m (Bdd.one m));
  Alcotest.(check bool) "not zero = one" true
    (Bdd.equal (Bdd.not_ m (Bdd.zero m)) (Bdd.one m))

let test_var_semantics () =
  let m = Bdd.manager 3 in
  let x1 = Bdd.var m 1 in
  Alcotest.(check bool) "x1 under 010" true (Bdd.eval m x1 [| false; true; false |]);
  Alcotest.(check bool) "x1 under 101" false (Bdd.eval m x1 [| true; false; true |])

let test_hash_consing () =
  let m = Bdd.manager 4 in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let and_ f g = Bdd.ite m f g (Bdd.zero m)
  and or_ f g = Bdd.ite m f (Bdd.one m) g in
  let f1 = and_ a b in
  let f2 = and_ b a in
  Alcotest.(check bool) "commutative sharing" true (Bdd.equal f1 f2);
  let g1 = Bdd.not_ m (or_ (Bdd.not_ m a) (Bdd.not_ m b)) in
  Alcotest.(check bool) "de morgan is the same node" true (Bdd.equal f1 g1)

let test_canonicity_random () =
  (* Two different construction orders of the same function give the same
     root. *)
  let rng = Rng.create 7 in
  for _ = 1 to 30 do
    let m = Bdd.manager 5 in
    let tt = TT.random rng 5 in
    let f = bdd_of_table m tt in
    (* Rebuild through Shannon on variable 3 manually. *)
    let f0 = bdd_of_table m (TT.cofactor tt 3 false) in
    let f1 = bdd_of_table m (TT.cofactor tt 3 true) in
    let g = Bdd.ite m (Bdd.var m 3) f1 f0 in
    Alcotest.(check bool) "canonical" true (Bdd.equal f g)
  done

let test_eval_matches_truth_table () =
  let rng = Rng.create 11 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng 6 in
    let m = Bdd.manager n in
    let tt = TT.random rng n in
    let f = bdd_of_table m tt in
    for minterm = 0 to (1 lsl n) - 1 do
      let assignment = Array.init n (fun i -> (minterm lsr i) land 1 = 1) in
      Alcotest.(check bool) "eval" (TT.get_bit tt minterm)
        (Bdd.eval m f assignment)
    done
  done

let test_any_sat () =
  let rng = Rng.create 17 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng 6 in
    let m = Bdd.manager n in
    let tt = TT.random rng n in
    let f = bdd_of_table m tt in
    match Bdd.any_sat m f with
    | None ->
        Alcotest.(check (option bool)) "none only for const0" (Some false)
          (TT.is_const tt)
    | Some assignment ->
        Alcotest.(check bool) "assignment satisfies" true (Bdd.eval m f assignment)
  done

let test_size_and_quota () =
  let m = Bdd.manager ~max_nodes:8 6 in
  (* x0 & x1 & x2 needs 3 nodes: it fits. *)
  let f =
    Bdd.ite m (Bdd.var m 0)
      (Bdd.ite m (Bdd.var m 1) (Bdd.var m 2) (Bdd.zero m))
      (Bdd.zero m)
  in
  Alcotest.(check bool) "chain built" true
    (Bdd.eval m f (Array.make 6 true)
    && not (Bdd.eval m f [| true; true; false; true; true; true |]));
  (* A parity function of 6 variables exceeds 8 nodes. *)
  Alcotest.check_raises "quota" Bdd.Node_limit_exceeded (fun () ->
      let p = ref (Bdd.zero m) in
      for i = 0 to 5 do
        p := Bdd.xor m !p (Bdd.var m i)
      done)

let test_build_network () =
  let rng = Rng.create 19 in
  for _ = 1 to 15 do
    let net = random_net rng 5 20 in
    let m = Bdd.manager (N.num_pis net) in
    let bdds = Bdd.build_network m net in
    for minterm = 0 to 31 do
      let vec = Array.init 5 (fun i -> (minterm lsr i) land 1 = 1) in
      let vals = N.eval net vec in
      N.iter_nodes net (fun id ->
          Alcotest.(check bool) "node agrees" vals.(id)
            (Bdd.eval m bdds.(id) vec))
    done
  done

(* ------------------------------------------------------------------ *)
(* Verification backend                                                *)
(* ------------------------------------------------------------------ *)

let test_backend_pair () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let and2 = TT.and_ (TT.var 0 2) (TT.var 1 2) in
  let x1 = N.add_gate net and2 [| a; b |] in
  let x2 = N.add_gate net and2 [| b; a |] in
  let y = N.add_gate net (TT.or_ (TT.var 0 2) (TT.var 1 2)) [| a; b |] in
  List.iter (N.add_po net) [ x1; x2; y ];
  Alcotest.(check bool) "equal pair" true
    (Backend.check_pair net x1 x2 = Sat_session.Equal);
  (match Backend.check_pair net x1 y with
   | Sat_session.Counterexample cex ->
       let vals = N.eval net cex in
       Alcotest.(check bool) "cex valid" true (vals.(x1) <> vals.(y))
   | Sat_session.Equal | Sat_session.Unknown ->
       Alcotest.fail "AND vs OR must differ")

let test_backend_agrees_with_sat () =
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let net = random_net rng 5 20 in
    let g1 = N.num_nodes net - 1 and g2 = N.num_nodes net - 2 in
    if (not (N.is_pi net g1)) && not (N.is_pi net g2) then begin
      let sat_verdict =
        Sat_session.check_pair (Sat_session.create net) g1 g2
      in
      let bdd_verdict = Backend.check_pair net g1 g2 in
      match (sat_verdict, bdd_verdict) with
      | Sat_session.Equal, Sat_session.Equal -> ()
      | Sat_session.Counterexample _, Sat_session.Counterexample _ -> ()
      | (Sat_session.Equal | Sat_session.Counterexample _), Sat_session.Unknown
        ->
          Alcotest.fail "quota on tiny network"
      | Sat_session.Equal, Sat_session.Counterexample _
      | Sat_session.Counterexample _, Sat_session.Equal ->
          Alcotest.fail "SAT and BDD verdicts disagree"
      | Sat_session.Unknown, _ ->
          Alcotest.fail "unexpected Unknown without a budget"
    end
  done

let test_backend_quota_fallback () =
  (* Equality of two 14-bit words with every bit of the first word
     ordered before the second: the BDD needs about 2^14 nodes, past the
     rung's quota of 10,000, so the backend answers Unknown. *)
  let net = N.create () in
  let xs = Array.init 14 (fun _ -> N.add_pi net) in
  let ys = Array.init 14 (fun _ -> N.add_pi net) in
  let xnor2 = TT.not_ (TT.xor (TT.var 0 2) (TT.var 1 2)) in
  let and2 = TT.and_ (TT.var 0 2) (TT.var 1 2) in
  let bits = Array.map2 (fun x y -> N.add_gate net xnor2 [| x; y |]) xs ys in
  let root =
    Array.fold_left
      (fun acc bit -> N.add_gate net and2 [| acc; bit |])
      bits.(0)
      (Array.sub bits 1 13)
  in
  let other = N.add_gate net (TT.not_ (TT.var 0 1)) [| root |] in
  N.add_po net root;
  N.add_po net other;
  Alcotest.(check bool) "quota hit" true
    (Backend.check_pair net root other = Sat_session.Unknown)

let test_backend_outputs () =
  let rng = Rng.create 29 in
  let net1 = random_net rng 5 25 in
  let net2 = N.copy net1 in
  (match Backend.check_outputs net1 net2 with
   | Some None -> ()
   | Some (Some _) -> Alcotest.fail "copies are equivalent"
   | None -> Alcotest.fail "quota on tiny network");
  (* Mutate a PO driver: flip the last gate. *)
  let net3 = N.create () in
  N.iter_nodes net1 (fun id ->
      match N.kind net1 id with
      | N.Pi _ -> ignore (N.add_pi net3)
      | N.Gate f ->
          let f = if id = N.num_nodes net1 - 1 then TT.not_ f else f in
          ignore (N.add_gate net3 f (N.fanins net1 id)));
  Array.iter (fun id -> N.add_po net3 id) (N.pos net1);
  let mutated_po_differs =
    Array.exists (fun po -> po = N.num_nodes net1 - 1) (N.pos net1)
  in
  if mutated_po_differs then
    match Backend.check_outputs net1 net3 with
    | Some (Some (po, cex)) ->
        let v1 = N.eval_pos net1 cex and v3 = N.eval_pos net3 cex in
        Alcotest.(check bool) "witness" true (v1.(po) <> v3.(po))
    | Some None -> Alcotest.fail "mutation missed"
    | None -> Alcotest.fail "quota"

let () =
  Alcotest.run "bdd"
    [
      ( "algebra",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "var" `Quick test_var_semantics;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "canonicity" `Quick test_canonicity_random;
          Alcotest.test_case "eval" `Quick test_eval_matches_truth_table;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "size/quota" `Quick test_size_and_quota;
          Alcotest.test_case "build network" `Quick test_build_network;
        ] );
      ( "backend",
        [
          Alcotest.test_case "pair" `Quick test_backend_pair;
          Alcotest.test_case "agrees with SAT" `Quick test_backend_agrees_with_sat;
          Alcotest.test_case "quota" `Quick test_backend_quota_fallback;
          Alcotest.test_case "outputs" `Quick test_backend_outputs;
        ] );
    ]
