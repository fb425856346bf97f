module N = Simgen_network.Network
module Cube = Simgen_network.Cube
module Mffc = Simgen_network.Mffc
module Rng = Simgen_base.Rng

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable fanin_depths : float array array;
      (* per gate, the MFFC depths of its fanins; [||] until first use *)
  mutable mffc : Mffc.cache option;
  mutable decisions : int;
}

let create ?rng engine =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5157 in
  { engine; rng; fanin_depths = [||]; mffc = None; decisions = 0 }

let fanin_depths t gate =
  let net = Engine.network t.engine in
  let cache =
    match t.mffc with
    | Some c -> c
    | None ->
        let c = Mffc.cache net in
        t.mffc <- Some c;
        t.fanin_depths <- Array.make (N.num_nodes net) [||];
        c
  in
  match t.fanin_depths.(gate) with
  | [||] ->
      let depths = Array.map (Mffc.cached_depth cache) (N.fanins net gate) in
      t.fanin_depths.(gate) <- depths;
      depths
  | depths -> depths

let mffc_rank t gate (row : Cube.t) =
  let depths = fanin_depths t gate in
  let total = ref 0.0 in
  Array.iteri
    (fun i l ->
      match l with
      | Cube.DC -> ()
      | Cube.T | Cube.F -> total := !total +. depths.(i))
    row.Cube.lits;
  !total

let row_priority t gate ~max_rank row =
  let cfg = Engine.config t.engine in
  let dc = float_of_int (Cube.dc_size row) in
  let rank = mffc_rank t gate row in
  let normalised = if max_rank > 0.0 then rank /. max_rank else 0.0 in
  (cfg.Config.alpha *. dc) +. (cfg.Config.beta *. normalised)

(* Roulette-wheel selection via stochastic acceptance (Lipowski &
   Lipowska): draw a row uniformly and accept it with probability
   priority / max_priority. *)
let roulette rng priorities rows =
  let max_p = Array.fold_left max 0.0 priorities in
  if max_p <= 0.0 then rows.(Rng.int rng (Array.length rows))
  else
    let rec draw attempts =
      let i = Rng.int rng (Array.length rows) in
      if attempts > 1000 || Rng.float rng 1.0 <= priorities.(i) /. max_p then
        rows.(i)
      else draw (attempts + 1)
    in
    draw 0

let choose_row t gate = function
  | [] -> invalid_arg "Decision.choose_row: no rows"
  | [ row ] -> row
  | rows -> (
      let cfg = Engine.config t.engine in
      let arr = Array.of_list rows in
      match cfg.Config.decision with
      | Config.Random_row -> arr.(Rng.int t.rng (Array.length arr))
      | Config.Dc_weighted ->
          (* Laplace smoothing keeps zero-DC rows selectable: they are the
             only rows that can activate narrow difference regions, and a
             hard zero weight would make some classes unsplittable. *)
          let priorities =
            Array.map (fun r -> 1.0 +. float_of_int (Cube.dc_size r)) arr
          in
          roulette t.rng priorities arr
      | Config.Dc_mffc_weighted ->
          let ranks = Array.map (mffc_rank t gate) arr in
          let max_rank = Array.fold_left max 0.0 ranks in
          let priorities =
            Array.map (fun r -> 1.0 +. row_priority t gate ~max_rank r) arr
          in
          roulette t.rng priorities arr)

let decide t gate =
  t.decisions <- t.decisions + 1;
  match Engine.matching_rows t.engine gate with
  | [] -> Error gate
  | rows ->
      let row = choose_row t gate rows in
      let fanins = N.fanins (Engine.network t.engine) gate in
      (* Assign the row's concrete values; the output is set too when the
         row pins it down and it is still open. *)
      if Assignment.value (Engine.assignment t.engine) gate = Value.Unknown
      then Engine.set t.engine gate row.Cube.out;
      Array.iteri
        (fun i l ->
          match l with
          | Cube.DC -> ()
          | Cube.T -> Engine.set t.engine fanins.(i) true
          | Cube.F -> Engine.set t.engine fanins.(i) false)
        row.Cube.lits;
      Ok ()

let num_decisions t = t.decisions
