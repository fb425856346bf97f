(* The cut-local check: the first rung of [Sweeper.verify_pair], run
   before any SAT query. It grows a small cut shared by the pair,
   composes both cone functions over it and compares the tables. Nothing
   is stored between consults; the only state is five counters. *)

module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Shared = Simgen_base.Shared

(* The cut width, i.e. the arity of the compared tables, and the number
   of gate expansions spent growing one cut. *)
let max_support = 8
let max_interior = 48

type t = {
  consults : int Shared.Atomic.t;
  hits : int Shared.Atomic.t;
  misses : int Shared.Atomic.t;
  local_proofs : int Shared.Atomic.t;
  local_cexes : int Shared.Atomic.t;
}

let create () =
  let loc = Shared.here __POS__ in
  let counter name = Shared.Atomic.make ~loc ("sweep.fun-cache." ^ name) 0 in
  {
    consults = counter "consults";
    hits = counter "hits";
    misses = counter "misses";
    local_proofs = counter "local-proofs";
    local_cexes = counter "local-cexes";
  }

module IS = Set.Make (Int)

(* Grow a shared cut for {a, b}: starting from the two representatives,
   repeatedly expand the largest frontier gate whose (substitution
   resolved) fanins keep the frontier within [max_support]. Expanded
   gates become interior; expansion stops when nothing fits or the
   interior budget is spent. The cut is exact when only PIs remain on
   the frontier. *)
let shared_cut ~subst net a b =
  let frontier = ref (IS.add a (IS.singleton b)) in
  let interior = ref IS.empty in
  let steps = ref 0 in
  let fits id =
    match N.kind net id with
    | N.Pi _ -> None
    | N.Gate _ ->
        let fresh =
          Array.fold_left
            (fun acc f ->
              let f = Sat_session.resolve subst f in
              if IS.mem f !frontier || IS.mem f !interior then acc
              else IS.add f acc)
            IS.empty (N.fanins net id)
        in
        let size' = IS.cardinal !frontier - 1 + IS.cardinal fresh in
        if size' <= max_support then Some fresh else None
  in
  let continue = ref true in
  while !continue && !steps < max_interior do
    (* largest-id gate first: ids are topological, so this peels the
       pair's own logic before touching shared fanin structure *)
    let rec pick = function
      | [] -> None
      | id :: rest -> (
          match fits id with Some fresh -> Some (id, fresh) | None -> pick rest)
    in
    match pick (List.rev (IS.elements !frontier)) with
    | None -> continue := false
    | Some (id, fresh) ->
        incr steps;
        frontier := IS.union fresh (IS.remove id !frontier);
        interior := IS.add id !interior
  done;
  let exact = IS.for_all (fun id -> N.is_pi net id) !frontier in
  (IS.elements !frontier (* ascending *), IS.elements !interior, exact)

(* Compose a gate function over the truth tables of its (resolved)
   fanins by Shannon expansion, with constant short-circuiting. *)
let rec compose s f fanin_tts i =
  match TT.is_const f with
  | Some b -> TT.create_const s b
  | None ->
      let hi = compose s (TT.cofactor f i true) fanin_tts (i + 1) in
      let lo = compose s (TT.cofactor f i false) fanin_tts (i + 1) in
      if TT.equal hi lo then hi
      else
        TT.or_
          (TT.and_ fanin_tts.(i) hi)
          (TT.and_ (TT.not_ fanin_tts.(i)) lo)

(* Truth tables of [a] and [b] over the cut variables (frontier nodes in
   ascending id order). Interior gates are evaluated ascending — fanins
   have smaller ids, so every resolved fanin is already a frontier
   variable or a computed interior table. *)
let cut_functions ~subst net frontier interior a b =
  let s = List.length frontier in
  let tts = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace tts id (TT.var i s)) frontier;
  List.iter
    (fun id ->
      let f = N.func net id in
      let fanin_tts =
        Array.map
          (fun fi -> Hashtbl.find tts (Sat_session.resolve subst fi))
          (N.fanins net id)
      in
      Hashtbl.replace tts id (compose s f fanin_tts 0))
    interior;
  (Hashtbl.find tts a, Hashtbl.find tts b, s)

(* A full PI vector realising cut minterm [m]: the (all-PI) frontier
   pins its bits, every other input is randomised. *)
let vector_of_minterm ~rng net frontier m =
  let vec = Array.init (N.num_pis net) (fun _ -> Rng.bool rng) in
  List.iteri
    (fun i id ->
      match N.kind net id with
      | N.Pi k -> vec.(k) <- (m lsr i) land 1 = 1
      | N.Gate _ -> ())
    frontier;
  vec

let first_differing_minterm tt_a tt_b s =
  let rec go m =
    if m >= 1 lsl s then None
    else if TT.get_bit tt_a m <> TT.get_bit tt_b m then Some m
    else go (m + 1)
  in
  go 0

let consult t ~serve_equal ~rng ~subst net a b =
  let a = Sat_session.resolve subst a and b = Sat_session.resolve subst b in
  Shared.Atomic.incr t.consults;
  let frontier, interior, exact = shared_cut ~subst net a b in
  let tt_a, tt_b, s = cut_functions ~subst net frontier interior a b in
  if TT.equal tt_a tt_b then begin
    (* agreement over the free cut variables implies agreement over every
       PI assignment; under certification the SAT route must still run so
       the merge can cite a DRUP proof: the proof counts, but the withheld
       answer is neither a hit nor a miss *)
    Shared.Atomic.incr t.local_proofs;
    if serve_equal then begin
      Shared.Atomic.incr t.hits;
      Sat_session.Equal
    end
    else Sat_session.Unknown
  end
  else if exact then
    (* the cut is the pair's true PI support: a differing minterm is a
       genuine counterexample *)
    match first_differing_minterm tt_a tt_b s with
    | Some m ->
        Shared.Atomic.incr t.local_cexes;
        Shared.Atomic.incr t.hits;
        Sat_session.Counterexample (vector_of_minterm ~rng net frontier m)
    | None -> (* unequal tables must differ somewhere *) assert false
  else begin
    (* an inexact cut: the difference may be unreachable, so SAT decides *)
    Shared.Atomic.incr t.misses;
    Sat_session.Unknown
  end

type stats = {
  consults : int;
  hits : int;
  misses : int;
  local_proofs : int;
  local_cexes : int;
}

let stats (t : t) =
  {
    consults = Shared.Atomic.get t.consults;
    hits = Shared.Atomic.get t.hits;
    misses = Shared.Atomic.get t.misses;
    local_proofs = Shared.Atomic.get t.local_proofs;
    local_cexes = Shared.Atomic.get t.local_cexes;
  }

let add (t : t) (s : stats) =
  let bump counter n = ignore (Shared.Atomic.fetch_and_add counter n) in
  bump t.consults s.consults;
  bump t.hits s.hits;
  bump t.misses s.misses;
  bump t.local_proofs s.local_proofs;
  bump t.local_cexes s.local_cexes
