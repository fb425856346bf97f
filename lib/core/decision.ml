module N = Simgen_network.Network
module Cube = Simgen_network.Cube
module Mffc = Simgen_network.Mffc
module Rng = Simgen_base.Rng

type t = {
  engine : Engine.t;
  rng : Rng.t;
  (* Per gate, indexed by row ({!Engine.rows_of}): the DC count of each
     row (Eq. 1) and its Eq. 3 rank; [||] until first use. *)
  dcs : float array array;
  ranks : float array array;
  mutable mffc : Mffc.cache option;
  (* Scratch of [decide]: the matching row indices and their Eq. 4
     priorities, grown to the widest gate decided on. *)
  mutable matched : int array;
  mutable priorities : float array;
  mutable decisions : int;
}

let create ?rng engine =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5157 in
  let n = N.num_nodes (Engine.network engine) in
  {
    engine;
    rng;
    dcs = Array.make n [||];
    ranks = Array.make n [||];
    mffc = None;
    matched = [||];
    priorities = [||];
    decisions = 0;
  }

let dcs t gate =
  match t.dcs.(gate) with
  | [||] ->
      let dcs =
        Array.map
          (fun row -> float_of_int (Cube.dc_size row))
          (Engine.rows_of t.engine gate)
      in
      t.dcs.(gate) <- dcs;
      dcs
  | dcs -> dcs

(* Eq. 3 of every row of the gate: the sum, in fanin order, of the MFFC
   depths of the row's non-DC inputs. *)
let ranks t gate =
  match t.ranks.(gate) with
  | [||] ->
      let net = Engine.network t.engine in
      let cache =
        match t.mffc with
        | Some c -> c
        | None ->
            let c = Mffc.cache net in
            t.mffc <- Some c;
            c
      in
      let depths = Array.map (Mffc.cached_depth cache) (N.fanins net gate) in
      let rank (row : Cube.t) =
        let total = ref 0.0 in
        Array.iteri
          (fun i l ->
            match l with
            | Cube.DC -> ()
            | Cube.T | Cube.F -> total := !total +. depths.(i))
          row.Cube.lits;
        !total
      in
      let ranks = Array.map rank (Engine.rows_of t.engine gate) in
      t.ranks.(gate) <- ranks;
      ranks
  | ranks -> ranks

let mffc_rank t gate r = (ranks t gate).(r)

let[@inline] priority (cfg : Config.t) ~dc ~rank ~max_rank =
  let normalised = if max_rank > 0.0 then rank /. max_rank else 0.0 in
  (cfg.Config.alpha *. dc) +. (cfg.Config.beta *. normalised)

(* Roulette-wheel selection among the [n] matching rows via stochastic
   acceptance (Lipowski & Lipowska): draw a row uniformly and accept it
   with probability priority / max_priority. *)
let roulette t n =
  let p = t.priorities in
  let max_p = ref 0.0 in
  for k = 0 to n - 1 do
    if p.(k) > !max_p then max_p := p.(k)
  done;
  let max_p = !max_p in
  if max_p <= 0.0 then t.matched.(Rng.int t.rng n)
  else begin
    let chosen = ref (-1) and attempts = ref 0 in
    while !chosen < 0 do
      let k = Rng.int t.rng n in
      if !attempts > 1000 || Rng.float t.rng 1.0 <= p.(k) /. max_p then
        chosen := t.matched.(k)
      else incr attempts
    done;
    !chosen
  end

(* One of the [n >= 2] matching rows, by the configured policy. *)
let choose t gate n =
  let cfg = Engine.config t.engine and matched = t.matched in
  match cfg.Config.decision with
  | Config.Random_row -> matched.(Rng.int t.rng n)
  | Config.Dc_weighted ->
      (* Laplace smoothing keeps zero-DC rows selectable: they are the
         only rows that can activate narrow difference regions, and a
         hard zero weight would make some classes unsplittable. *)
      let dcs = dcs t gate in
      for k = 0 to n - 1 do
        t.priorities.(k) <- 1.0 +. dcs.(matched.(k))
      done;
      roulette t n
  | Config.Dc_mffc_weighted ->
      let dcs = dcs t gate and ranks = ranks t gate in
      let max_rank = ref 0.0 in
      for k = 0 to n - 1 do
        let rank = ranks.(matched.(k)) in
        if rank > !max_rank then max_rank := rank
      done;
      let max_rank = !max_rank in
      for k = 0 to n - 1 do
        let r = matched.(k) in
        t.priorities.(k) <-
          1.0 +. priority cfg ~dc:dcs.(r) ~rank:ranks.(r) ~max_rank
      done;
      roulette t n

let decide t gate =
  t.decisions <- t.decisions + 1;
  let rows = Engine.rows_of t.engine gate in
  if Array.length t.matched < Array.length rows then begin
    t.matched <- Array.make (Array.length rows) 0;
    t.priorities <- Array.make (Array.length rows) 0.0
  end;
  match Engine.matching_rows t.engine gate t.matched with
  | 0 -> Error gate
  | n ->
      let row = rows.(if n = 1 then t.matched.(0) else choose t gate n) in
      let fanins = N.fanins (Engine.network t.engine) gate in
      (* Assign the row's concrete values; the output is set too when the
         row pins it down and it is still open. *)
      if Assignment.value (Engine.assignment t.engine) gate = Value.Unknown
      then Engine.set t.engine gate row.Cube.out;
      let lits = row.Cube.lits in
      for i = 0 to Array.length lits - 1 do
        match lits.(i) with
        | Cube.DC -> ()
        | Cube.T -> Engine.set t.engine fanins.(i) true
        | Cube.F -> Engine.set t.engine fanins.(i) false
      done;
      Ok ()

let num_decisions t = t.decisions
