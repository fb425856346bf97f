(* Known answers for every verdict the benchmark checks, computed with
   the scalar evaluator [Network.eval_pos] rather than the word-parallel
   simulator under test. *)

module N = Simgen_network.Network
module Tt = Simgen_network.Truth_table
module Rng = Simgen_base.Rng

let random_vector rng n = Array.init n (fun _ -> Rng.bool rng)

(* Pairs that are equivalent by construction (two mappings of one AIG)
   must agree on [samples] random vectors. *)
let agree ?(samples = 1024) rng a b =
  N.num_pis a = N.num_pis b
  && N.num_pos a = N.num_pos b
  &&
  let rec go k =
    k = 0
    ||
    let v = random_vector rng (N.num_pis a) in
    N.eval_pos a v = N.eval_pos b v && go (k - 1)
  in
  go samples

(* A vector replays when the two networks differ on it at PO [po]. *)
let exposes a b vector po =
  po >= 0
  && po < N.num_pos a
  && Array.length vector = N.num_pis a
  && (N.eval_pos a vector).(po) <> (N.eval_pos b vector).(po)

(* A copy of [net] whose gate [g] has truth-table row [row] flipped. Node
   ids, PI order and PO order are preserved. *)
let flip_row net g row =
  let m = N.create ~name:(N.name net ^ "-mutant") () in
  N.iter_nodes net (fun id ->
      let id' =
        match N.kind net id with
        | N.Pi _ -> N.add_pi m
        | N.Gate f ->
            let f =
              if id = g then Tt.xor f (Tt.of_minterms (Tt.nvars f) [ row ])
              else f
            in
            N.add_gate m f (N.fanins net id)
      in
      assert (id' = id));
  Array.iter (N.add_po m) (N.pos net);
  m

(* A seeded single-row mutant of [net]. Each attempt draws a vector,
   picks a gate, and flips the row that vector selects at that gate; the
   flip is kept only when the scalar evaluator sees it at a PO, so the
   mutant is known to be non-equivalent. *)
let mutant rng net =
  let gates = ref [] in
  N.iter_gates net (fun g -> if Array.length (N.fanins net g) > 0 then gates := g :: !gates);
  let gates = Array.of_list (List.rev !gates) in
  let rec attempt k =
    if k = 0 then failwith ("Oracle.mutant: no observable flip in " ^ N.name net)
    else
      let v = random_vector rng (N.num_pis net) in
      let values = N.eval net v in
      let g = Rng.choose rng gates in
      let row =
        Array.fold_left
          (fun (acc, bit) fi -> ((if values.(fi) then acc lor (1 lsl bit) else acc), bit + 1))
          (0, 0) (N.fanins net g)
        |> fst
      in
      let m = flip_row net g row in
      if N.eval_pos m v <> N.eval_pos net v then m else attempt (k - 1)
  in
  attempt 1000
