module TT = Simgen_network.Truth_table
module N = Simgen_network.Network

type t = int
(* Node references: 0 = terminal false, 1 = terminal true, >= 2 internal. *)

exception Node_limit_exceeded

type manager = {
  nvars : int;
  max_nodes : int;
  mutable var_of : int array;  (* per node *)
  mutable low : int array;
  mutable high : int array;
  mutable next : int;  (* next free node index *)
  unique : (int * int * int, int) Hashtbl.t;  (* (var, low, high) -> node *)
  cache : (int * int * int, int) Hashtbl.t;  (* ite memo *)
}

let terminal_var = max_int

let manager ?(max_nodes = 1_000_000) nvars =
  let cap = 1024 in
  let m =
    {
      nvars;
      max_nodes;
      var_of = Array.make cap terminal_var;
      low = Array.make cap 0;
      high = Array.make cap 0;
      next = 2;
      unique = Hashtbl.create 4096;
      cache = Hashtbl.create 4096;
    }
  in
  m.var_of.(0) <- terminal_var;
  m.var_of.(1) <- terminal_var;
  m

let num_nodes m = m.next - 2

let zero _ = 0
let one _ = 1

let grow m =
  let n = Array.length m.var_of in
  let extend arr fill =
    let arr' = Array.make (2 * n) fill in
    Array.blit arr 0 arr' 0 n;
    arr'
  in
  m.var_of <- extend m.var_of terminal_var;
  m.low <- extend m.low 0;
  m.high <- extend m.high 0

(* Hash-consed node constructor with the no-redundant-test reduction. *)
let mk m v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some node -> node
    | None ->
        if num_nodes m >= m.max_nodes then raise Node_limit_exceeded;
        if m.next >= Array.length m.var_of then grow m;
        let node = m.next in
        m.next <- node + 1;
        m.var_of.(node) <- v;
        m.low.(node) <- lo;
        m.high.(node) <- hi;
        Hashtbl.replace m.unique (v, lo, hi) node;
        node

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var";
  mk m i 0 1

let top_var m f g h =
  let v node = m.var_of.(node) in
  min (v f) (min (v g) (v h))

let cofactors m node v =
  if m.var_of.(node) = v then (m.low.(node), m.high.(node)) else (node, node)

let rec ite m f g h =
  (* Terminal cases. *)
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt m.cache key with
    | Some r -> r
    | None ->
        let v = top_var m f g h in
        let f0, f1 = cofactors m f v in
        let g0, g1 = cofactors m g v in
        let h0, h1 = cofactors m h v in
        let lo = ite m f0 g0 h0 in
        let hi = ite m f1 g1 h1 in
        let r = mk m v lo hi in
        Hashtbl.replace m.cache key r;
        r

let not_ m f = ite m f 0 1
let xor m f g = ite m f (not_ m g) g

let equal (a : t) (b : t) = a = b
let is_zero _ f = f = 0
let is_one _ f = f = 1

let eval m f assignment =
  if Array.length assignment <> m.nvars then invalid_arg "Bdd.eval";
  let rec go node =
    if node < 2 then node = 1
    else if assignment.(m.var_of.(node)) then go m.high.(node)
    else go m.low.(node)
  in
  go f

let any_sat m f =
  if f = 0 then None
  else begin
    let assignment = Array.make m.nvars false in
    let rec go node =
      if node >= 2 then
        if m.high.(node) <> 0 then begin
          assignment.(m.var_of.(node)) <- true;
          go m.high.(node)
        end
        else go m.low.(node)
    in
    go f;
    Some assignment
  end

let build_network m net =
  if N.num_pis net > m.nvars then invalid_arg "Bdd.build_network";
  let bdds = Array.make (N.num_nodes net) 0 in
  N.iter_nodes net (fun id ->
      match N.kind net id with
      | N.Pi idx -> bdds.(id) <- var m idx
      | N.Gate f ->
          let fanins = N.fanins net id in
          (* Express the gate over fresh temporaries? Not needed: compose
             directly by building the table over the fanin BDDs via
             Shannon expansion on the *function*, substituting fanin
             BDDs for its variables. *)
          let rec compose tt i =
            match TT.is_const tt with
            | Some false -> 0
            | Some true -> 1
            | None ->
                let lo = compose (TT.cofactor tt i false) (i + 1) in
                let hi = compose (TT.cofactor tt i true) (i + 1) in
                ite m bdds.(fanins.(i)) hi lo
          in
          bdds.(id) <- compose f 0);
  bdds
