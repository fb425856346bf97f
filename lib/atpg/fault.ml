module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Simulator = Simgen_sim.Simulator

type t = { node : N.node_id; stuck : bool }

let all_gate_faults net =
  let acc = ref [] in
  N.iter_gates net (fun id ->
      acc := { node = id; stuck = true } :: { node = id; stuck = false } :: !acc);
  List.rev !acc

let to_string net fault =
  let name =
    match N.node_name net fault.node with
    | Some n -> n
    | None -> Printf.sprintf "n%d" fault.node
  in
  Printf.sprintf "%s/SA%d" name (if fault.stuck then 1 else 0)

let faulty_node_values net fault vec =
  let vals = Array.make (N.num_nodes net) false in
  N.iter_nodes net (fun id ->
      let v =
        match N.kind net id with
        | N.Pi idx -> vec.(idx)
        | N.Gate f ->
            let ins = Array.map (fun fi -> vals.(fi)) (N.fanins net id) in
            TT.eval f ins
      in
      vals.(id) <- (if id = fault.node then fault.stuck else v));
  vals

let faulty_eval net fault vec =
  let vals = faulty_node_values net fault vec in
  Array.map (fun id -> vals.(id)) (N.pos net)

let detects net fault vec = N.eval_pos net vec <> faulty_eval net fault vec

(* Word-parallel faulty simulation: the simulator's LUT kernel, with the
   fault site forced to its stuck constant. *)
let faulty_simulate_word net fault pi_words =
  let words = Array.make (N.num_nodes net) 0L in
  let s = Simulator.scratch () in
  N.iter_nodes net (fun id ->
      let w =
        match N.kind net id with
        | N.Pi idx -> pi_words.(idx)
        | N.Gate f -> Simulator.eval_lut s f (N.fanins net id) words
      in
      words.(id) <- (if id = fault.node then (if fault.stuck then -1L else 0L) else w));
  words

let detects_word net fault pi_words =
  let good = Simulator.simulate_word net pi_words in
  let bad = faulty_simulate_word net fault pi_words in
  Array.fold_left
    (fun acc po -> Int64.logor acc (Int64.logxor good.(po) bad.(po)))
    0L (N.pos net)
