(* The cut-local check: the first rung of [Sweeper.verify_pair], run
   before any SAT query. It grows a small cut shared by the pair,
   simulates the window above the cut exhaustively on the simulator's
   word kernel and compares the pair's words. Nothing is stored between
   consults: [t] is three counters, and the sweeper's [scratch] is the
   working space of one consult. *)

module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Simulator = Simgen_sim.Simulator
module Rng = Simgen_base.Rng
module Shared = Simgen_base.Shared

(* The cut width, so at most 2^8 minterms (4 table words) a node, and
   the number of gate expansions spent growing one cut. *)
let max_support = 8
let max_interior = 48

(* One counter per answer; [consults] and [hits] are their sums. *)
type t = {
  misses : int Shared.Atomic.t;
  local_proofs : int Shared.Atomic.t;
  local_cexes : int Shared.Atomic.t;
}

let create () =
  let loc = Shared.here __POS__ in
  let counter name = Shared.Atomic.make ~loc ("sweep.fun-cache." ^ name) 0 in
  {
    misses = counter "misses";
    local_proofs = counter "local-proofs";
    local_cexes = counter "local-cexes";
  }

(* [mark.(id)] is [epoch] while [id] is on the cut and [-epoch] once it
   is expanded: a consult bumps [epoch], which empties both sets at once.
   [slot] maps a window node to its row of [words], where
   [words.(w).(row)] is table word [w] of that node. *)
type scratch = {
  mark : int array;
  slot : int array;
  mutable epoch : int;
  words : int64 array array;
  kernel : Simulator.scratch;
}

let scratch net =
  let n = N.num_nodes net in
  {
    mark = Array.make n 0;
    slot = Array.make n 0;
    epoch = 0;
    words =
      Array.init
        (1 lsl (max_support - 6))
        (fun _ -> Array.make (max_support + max_interior) 0L);
    kernel = Simulator.scratch ();
  }

let cut_node s id = s.mark.(id) = s.epoch
let descending x y = compare y x

(* The (substitution resolved) fanins of cut gate [id] not yet in the
   window, if expanding [id] keeps the cut within [max_support]. A PI
   never expands. *)
let expansion s ~subst net cut id =
  if N.is_pi net id then None
  else
    let fresh =
      Array.fold_left
        (fun acc f ->
          let f = Sat_session.resolve subst f in
          if abs s.mark.(f) = s.epoch || List.mem f acc then acc else f :: acc)
        [] (N.fanins net id)
    in
    if List.length cut - 1 + List.length fresh <= max_support then Some fresh
    else None

(* Grow a shared cut for {a, b}: starting from the two representatives,
   repeatedly expand the largest cut gate whose fanins keep the cut
   within [max_support]. Expanded gates become interior; expansion stops
   when nothing fits or the interior budget is spent. Largest id first:
   ids are topological, so this peels the pair's own logic before
   touching shared fanin structure. Answers the cut, largest id first,
   and the interior. *)
let shared_cut s ~subst net a b =
  s.epoch <- s.epoch + 1;
  let cut = List.sort_uniq descending [ a; b ] in
  List.iter (fun id -> s.mark.(id) <- s.epoch) cut;
  let rec grow cut interior n =
    let fits id =
      Option.map (fun fresh -> (id, fresh)) (expansion s ~subst net cut id)
    in
    match if n < max_interior then List.find_map fits cut else None with
    | None -> (cut, interior)
    | Some (id, fresh) ->
        s.mark.(id) <- -s.epoch;
        List.iter (fun f -> s.mark.(f) <- s.epoch) fresh;
        let cut = List.sort descending (fresh @ List.filter (( <> ) id) cut) in
        grow cut (id :: interior) (n + 1)
  in
  grow cut [] 0

(* Simulate the window exhaustively: cut node [i] (ascending ids) takes
   the standard pattern of variable [i], and the interior gates are
   evaluated in ascending id order, so every resolved fanin already has
   its words. Answers the number of table words per node. *)
let simulate s ~subst net cut interior =
  let nvars = List.length cut in
  let nw = if nvars <= 6 then 1 else 1 lsl (nvars - 6) in
  List.iteri
    (fun i id ->
      s.slot.(id) <- i;
      for w = 0 to nw - 1 do
        s.words.(w).(i) <-
          (if i < 6 then TT.var_pattern i
           else if (w lsr (i - 6)) land 1 = 1 then -1L
           else 0L)
      done)
    (List.rev cut);
  List.iteri
    (fun j id ->
      s.slot.(id) <- nvars + j;
      let slot f = s.slot.(Sat_session.resolve subst f) in
      let fanins = Array.map slot (N.fanins net id) in
      for w = 0 to nw - 1 do
        s.words.(w).(nvars + j) <-
          Simulator.eval_lut s.kernel (N.func net id) fanins s.words.(w)
      done)
    (List.sort compare interior);
  nw

(* The lowest minterm where the words of [a] and [b] differ. Below six
   cut variables a word repeats its 2^n-bit table, so the lowest
   differing bit is a minterm of the table. *)
let first_difference s nw a b =
  let rec go w =
    if w >= nw then None
    else
      let d = Int64.logxor s.words.(w).(s.slot.(a)) s.words.(w).(s.slot.(b)) in
      let rec low k =
        if Int64.logand (Int64.shift_right_logical d k) 1L = 1L then k
        else low (k + 1)
      in
      if d = 0L then go (w + 1) else Some ((64 * w) + low 0)
  in
  go 0

(* A full PI vector realising cut minterm [m]: the (all-PI) cut pins its
   bits, every other input is randomised. *)
let vector_of_minterm ~rng net cut m =
  let vec = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
  List.iteri
    (fun i id ->
      match N.kind net id with
      | N.Pi k -> vec.(k) <- (m lsr i) land 1 = 1
      | N.Gate _ -> ())
    (List.rev cut);
  vec

let consult t s ~rng ~subst net a b =
  let a = Sat_session.resolve subst a and b = Sat_session.resolve subst b in
  let cut, interior = shared_cut s ~subst net a b in
  let nw = simulate s ~subst net cut interior in
  match first_difference s nw a b with
  | None ->
      (* agreement over the free cut nodes implies agreement over every
         PI assignment *)
      Shared.Atomic.incr t.local_proofs;
      Sat_session.Equal
  | Some m when List.for_all (N.is_pi net) cut ->
      (* the cut is the pair's true PI support: the differing minterm is
         a genuine counterexample *)
      Shared.Atomic.incr t.local_cexes;
      Sat_session.Counterexample (vector_of_minterm ~rng net cut m)
  | Some _ ->
      (* an inexact cut: the difference may be unreachable, so SAT
         decides *)
      Shared.Atomic.incr t.misses;
      Sat_session.Unknown

type stats = {
  consults : int;
  hits : int;
  misses : int;
  local_proofs : int;
  local_cexes : int;
}

let stats (t : t) =
  let misses = Shared.Atomic.get t.misses
  and local_proofs = Shared.Atomic.get t.local_proofs
  and local_cexes = Shared.Atomic.get t.local_cexes in
  let hits = local_proofs + local_cexes in
  { consults = hits + misses; hits; misses; local_proofs; local_cexes }

let add (t : t) (s : stats) =
  let bump counter n = ignore (Shared.Atomic.fetch_and_add counter n) in
  bump t.misses s.misses;
  bump t.local_proofs s.local_proofs;
  bump t.local_cexes s.local_cexes
