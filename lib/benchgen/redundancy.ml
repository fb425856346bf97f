module Aig = Simgen_aig.Aig
module Rewrite = Simgen_aig.Rewrite
module Rng = Simgen_base.Rng

(* Instantiate [src] inside [dst], driving its PIs from [pi_lits]; returns
   the PO literals and the node map (dst literal of every src node). *)
let instantiate dst src pi_lits =
  let map = Array.make (Aig.num_nodes src) Aig.false_ in
  Array.iter (fun id -> map.(id) <- pi_lits.(Aig.pi_index src id)) (Aig.pis src);
  let map_lit l =
    let m = map.(Aig.node_of_lit l) in
    if Aig.is_complemented l then Aig.not_ m else m
  in
  Aig.iter_ands src (fun id ->
      map.(id) <- Aig.and_ dst (map_lit (Aig.fanin0 src id)) (map_lit (Aig.fanin1 src id)));
  (Array.map map_lit (Aig.pos src), map)

(* A conjunction that is rarely true under uniform random inputs: [bits]
   PI literals pin the probability at <= 2^-bits, and a few internal
   signals are conjoined on top so that activating the cube needs the
   multi-level justification reasoning SimGen borrows from ATPG. *)
let rare_cube dst rng ~pis ~internal bits =
  let pi_part =
    let chosen = Array.copy pis in
    Rng.shuffle rng chosen;
    List.init
      (min bits (Array.length chosen))
      (fun i -> if Rng.bool rng then chosen.(i) else Aig.not_ chosen.(i))
  in
  let internal_part =
    let chosen = Array.copy internal in
    Rng.shuffle rng chosen;
    List.init
      (min 3 (Array.length chosen))
      (fun i -> if Rng.bool rng then chosen.(i) else Aig.not_ chosen.(i))
  in
  Aig.and_list dst (pi_part @ internal_part)

let internal_signals rng map src ~count =
  let ands = ref [] in
  Aig.iter_ands src (fun id -> ands := map.(id) :: !ands);
  match !ands with
  | [] -> [||]
  | all ->
      let arr = Array.of_list all in
      Rng.shuffle rng arr;
      Array.sub arr 0 (min count (Array.length arr))

(* Literals in a rare cube's PI part: the cube is true on at most a
   2^-10 share of the input space. *)
let rare_bits = 10

let inject ?(exact_fraction = 0.5) rng aig =
  let internal_pairs = max 10 (Aig.num_ands aig / 6) in
  let variant = Rewrite.shuffle_rebuild rng aig in
  let dst = Aig.create ~name:(Aig.name aig ^ "_red") () in
  let pis = Array.init (Aig.num_pis aig) (fun _ -> Aig.add_pi dst) in
  let sel = Aig.add_pi dst in
  let pos1, map1 = instantiate dst aig pis in
  let pos2, map2 = instantiate dst variant pis in
  Array.iteri
    (fun i l1 ->
      let l2 =
        if Rng.float rng 1.0 < exact_fraction then pos2.(i)
        else
          let internal = internal_signals rng map2 variant ~count:8 in
          Aig.xor dst pos2.(i) (rare_cube dst rng ~pis ~internal rare_bits)
      in
      Aig.add_po ?name:(Aig.po_name aig i) dst (Aig.mux dst sel l1 l2))
    pos1;
  (* Also plant near-miss pairs at internal points: for a sampled internal
     node n, both n and n XOR rare stay alive behind a fresh PO mux. The
     pair agrees on almost every random vector, so it survives random
     simulation as an equivalence-class member that only guided patterns
     (or a SAT counter-example) can separate. *)
  let picks = internal_signals rng map1 aig ~count:internal_pairs in
  Array.iter
    (fun n ->
      let internal = internal_signals rng map1 aig ~count:8 in
      let partner = Aig.xor dst n (rare_cube dst rng ~pis ~internal rare_bits) in
      Aig.add_po dst (Aig.mux dst sel n partner))
    picks;
  dst
