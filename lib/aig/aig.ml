module Vec = Simgen_base.Vec

type lit = int

type node =
  | Const  (* node 0 only *)
  | Pi of int
  | And of lit * lit

type t = {
  aig_name : string;
  nodes : node Vec.t;
  mutable pi_ids : int list;  (* reversed *)
  mutable po_list : (lit * string option) list;  (* reversed *)
  strash : (int * int, int) Hashtbl.t;
}

let create ?(name = "aig") () =
  let nodes = Vec.create ~dummy:Const () in
  Vec.push nodes Const;
  { aig_name = name; nodes; pi_ids = []; po_list = []; strash = Hashtbl.create 1024 }

let name t = t.aig_name

let false_ : lit = 0
let true_ : lit = 1
let not_ (l : lit) : lit = l lxor 1
let lit_of_node n c : lit = (2 * n) lor (if c then 1 else 0)
let node_of_lit (l : lit) = l lsr 1
let is_complemented (l : lit) = l land 1 = 1

let num_nodes t = Vec.length t.nodes
let num_pis t = List.length t.pi_ids
let num_pos t = List.length t.po_list

let node t id = Vec.get t.nodes id

let is_const t id =
  id = 0 && (match node t id with Const -> true | Pi _ | And _ -> false)
let is_and t id = match node t id with And _ -> true | Const | Pi _ -> false

let num_ands t =
  let c = ref 0 in
  for id = 0 to num_nodes t - 1 do
    if is_and t id then incr c
  done;
  !c

let pi_index t id =
  match node t id with
  | Pi idx -> idx
  | Const | And _ -> invalid_arg "Aig.pi_index"

let fanin0 t id =
  match node t id with
  | And (a, _) -> a
  | Const | Pi _ -> invalid_arg "Aig.fanin0"

let fanin1 t id =
  match node t id with
  | And (_, b) -> b
  | Const | Pi _ -> invalid_arg "Aig.fanin1"

let add_pi t =
  let id = num_nodes t in
  Vec.push t.nodes (Pi (num_pis t));
  t.pi_ids <- id :: t.pi_ids;
  lit_of_node id false

let and_ t a b =
  (* Normalise operand order so that strashing is canonical. *)
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = false_ then false_
  else if a = true_ then b
  else if a = b then a
  else if a = not_ b then false_
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some id -> lit_of_node id false
    | None ->
        let id = num_nodes t in
        Vec.push t.nodes (And (a, b));
        Hashtbl.replace t.strash (a, b) id;
        lit_of_node id false

let or_ t a b = not_ (and_ t (not_ a) (not_ b))

let xor t a b =
  (* (a & ~b) | (~a & b) with sharing through strashing. *)
  or_ t (and_ t a (not_ b)) (and_ t (not_ a) b)

let mux t sel a b = or_ t (and_ t sel a) (and_ t (not_ sel) b)

(* Balanced reduction keeps AIG depth logarithmic for wide gates. *)
let rec reduce f t = function
  | [] -> invalid_arg "Aig: empty literal list"
  | [ x ] -> x
  | lits ->
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: y :: rest -> f t x y :: pair rest
      in
      reduce f t (pair lits)

let and_list t = function [] -> true_ | lits -> reduce and_ t lits
let or_list t = function [] -> false_ | lits -> reduce or_ t lits

let add_po ?name t l = t.po_list <- (l, name) :: t.po_list

let pis t = Array.of_list (List.rev t.pi_ids)
let pos t = Array.of_list (List.rev_map fst t.po_list)

let po_name t i =
  let arr = Array.of_list (List.rev t.po_list) in
  snd arr.(i)

let iter_ands t f =
  for id = 0 to num_nodes t - 1 do
    if is_and t id then f id
  done

let fanout_counts t =
  let counts = Array.make (num_nodes t) 0 in
  let bump l = counts.(node_of_lit l) <- counts.(node_of_lit l) + 1 in
  iter_ands t (fun id ->
      bump (fanin0 t id);
      bump (fanin1 t id));
  List.iter (fun (l, _) -> bump l) t.po_list;
  counts

let level t =
  let levels = Array.make (num_nodes t) 0 in
  iter_ands t (fun id ->
      let l0 = levels.(node_of_lit (fanin0 t id))
      and l1 = levels.(node_of_lit (fanin1 t id)) in
      levels.(id) <- 1 + max l0 l1);
  levels

let eval_lit vals (l : lit) =
  let v = vals.(node_of_lit l) in
  if is_complemented l then not v else v

let eval t pi_values =
  if Array.length pi_values <> num_pis t then invalid_arg "Aig.eval";
  let vals = Array.make (num_nodes t) false in
  for id = 0 to num_nodes t - 1 do
    match node t id with
    | Const -> vals.(id) <- false
    | Pi idx -> vals.(id) <- pi_values.(idx)
    | And (a, b) -> vals.(id) <- eval_lit vals a && eval_lit vals b
  done;
  vals

let eval_pos t pi_values =
  let vals = eval t pi_values in
  Array.map (eval_lit vals) (pos t)

let cleanup t =
  let t' = create ~name:t.aig_name () in
  (* map.(id) is the t'-literal representing node id viewed uncomplemented;
     constant folding in [and_] may make it a complemented literal. *)
  let map = Array.make (num_nodes t) (-1) in
  map.(0) <- false_;
  (* PIs first, preserving indices. *)
  Array.iter (fun id -> map.(id) <- add_pi t') (pis t);
  let map_lit l =
    let m = map.(node_of_lit l) in
    assert (m >= 0);
    if is_complemented l then not_ m else m
  in
  (* Mark reachable AND nodes from POs. *)
  let reach = Array.make (num_nodes t) false in
  let stack = ref (List.rev_map (fun (l, _) -> node_of_lit l) t.po_list) in
  let rec mark () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        if (not reach.(id)) && is_and t id then begin
          reach.(id) <- true;
          stack :=
            node_of_lit (fanin0 t id) :: node_of_lit (fanin1 t id) :: !stack
        end;
        mark ()
  in
  mark ();
  iter_ands t (fun id ->
      if reach.(id) then
        map.(id) <- and_ t' (map_lit (fanin0 t id)) (map_lit (fanin1 t id)));
  List.iter
    (fun (l, po_name) -> add_po ?name:po_name t' (map_lit l))
    (List.rev t.po_list);
  t'

module Unsafe = struct
  let push_and t a b =
    let id = num_nodes t in
    Vec.push t.nodes (And (a, b));
    lit_of_node id false
end
