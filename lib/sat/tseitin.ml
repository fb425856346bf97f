module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Cube = Simgen_network.Cube
module Isop = Simgen_network.Isop
module Rng = Simgen_base.Rng

(* Clauses for [y <-> f(fanin 0, ..., fanin (k-1))] from the ISOP covers:
   every on-set cube implies y, every off-set cube implies ~y. The two
   covers partition the input space, so the encoding is complete in both
   directions. [fanin i] is asked for in literal order, cube by cube, so
   a caller that allocates variables on first use gets them in that
   order. *)
let gate emit f y fanin =
  match TT.is_const f with
  | Some b -> emit [ Literal.make y (not b) ]
  | None ->
      List.iter
        (fun (c : Cube.t) ->
          let clause = ref [ Literal.make y (not c.Cube.out) ] in
          Array.iteri
            (fun i l ->
              match l with
              | Cube.DC -> ()
              | Cube.T -> clause := Literal.neg (fanin i) :: !clause
              | Cube.F -> clause := Literal.pos (fanin i) :: !clause)
            c.Cube.lits;
          emit !clause)
        (Isop.rows f)

type env = { s : Solver.t; mutable recorded : Literal.t list list option }

let create ?(record = false) () =
  let s = Solver.create () in
  (* Proof logging must be armed before the first clause: trivially-unsat
     additions already contribute proof steps. *)
  if record then Solver.enable_proof s;
  { s; recorded = (if record then Some [] else None) }

let solver env = env.s

let clauses env = match env.recorded with Some cs -> List.rev cs | None -> []

(* All emission funnels through here so a recording env captures the exact
   clause stream handed to the solver (before any solver-side
   normalization) — the stream the CNF linter audits. *)
let add env clause =
  (match env.recorded with
   | Some cs -> env.recorded <- Some (clause :: cs)
   | None -> ());
  Solver.add_clause env.s clause

let encode_with_pis env net pi_vars =
  let vars = Array.make (N.num_nodes net) (-1) in
  N.iter_nodes net (fun id ->
      match N.kind net id with
      | N.Pi idx -> vars.(id) <- pi_vars.(idx)
      | N.Gate f ->
          let y = Solver.new_var env.s in
          vars.(id) <- y;
          let fanins = N.fanins net id in
          gate (add env) f y (fun i -> vars.(fanins.(i))));
  vars

let encode_network env net =
  let pi_vars = Array.init (N.num_pis net) (fun _ -> Solver.new_var env.s) in
  encode_with_pis env net pi_vars

let encode_shared_pis env net1 net2 =
  if N.num_pis net1 <> N.num_pis net2 then
    invalid_arg "Tseitin.encode_shared_pis: PI count mismatch";
  let pi_vars = Array.init (N.num_pis net1) (fun _ -> Solver.new_var env.s) in
  (encode_with_pis env net1 pi_vars, encode_with_pis env net2 pi_vars)

(* The fanin cones of [roots] (after [resolve]), found by an explicit-stack
   DFS that does not enter a [stop] node, then encoded gate by gate in
   reverse visiting order. Variables are allocated on first use: a gate's
   output first, then its fanins as its clauses name them; stop nodes no
   clause names are touched last so the model covers every cone input. *)
let encode_cones ?(resolve = Fun.id) ?stop env net roots =
  let stop = match stop with Some f -> f | None -> N.is_pi net in
  let vars = Array.make (N.num_nodes net) (-1) in
  let var_of id =
    if vars.(id) < 0 then vars.(id) <- Solver.new_var env.s;
    vars.(id)
  in
  let visited = Array.make (N.num_nodes net) false in
  let order = ref [] in
  let rec walk = function
    | [] -> ()
    | id :: rest when visited.(id) -> walk rest
    | id :: rest ->
        visited.(id) <- true;
        order := id :: !order;
        if stop id then walk rest
        else
          walk
            (Array.fold_left (fun st fi -> resolve fi :: st) rest
               (N.fanins net id))
  in
  walk (List.map resolve roots);
  List.iter
    (fun id ->
      if not (stop id) then begin
        let y = var_of id in
        let fanins = Array.map resolve (N.fanins net id) in
        gate (add env) (N.func net id) y (fun i -> var_of fanins.(i))
      end)
    !order;
  List.iter (fun id -> if stop id then ignore (var_of id)) !order;
  vars

let xor_var env a b =
  let y = Solver.new_var env.s in
  (* y <-> a xor b *)
  add env [ Literal.neg y; Literal.pos a; Literal.pos b ];
  add env [ Literal.neg y; Literal.neg a; Literal.neg b ];
  add env [ Literal.pos y; Literal.neg a; Literal.pos b ];
  add env [ Literal.pos y; Literal.pos a; Literal.neg b ];
  y

(* Trim before checking: drop the lemmas the empty-clause derivation never
   uses, then validate what is left against the recorded formula. *)
let checked_proof env =
  let formula = clauses env in
  let proof = Drup.trim formula (Solver.proof_events env.s) in
  match Drup.check formula proof with
  | Drup.Valid -> Some (formula, proof)
  | Drup.Invalid_step _ | Drup.Incomplete -> None

let pi_values ?rng solver net vars =
  let rng = match rng with Some r -> r | None -> Rng.create 0xCE8 in
  let values = Array.make (N.num_pis net) false in
  Array.iter
    (fun id ->
      let idx = match N.kind net id with N.Pi i -> i | N.Gate _ -> assert false in
      values.(idx) <-
        (if vars.(id) >= 0 then Solver.value solver vars.(id) else Rng.bool rng))
    (N.pis net);
  values
