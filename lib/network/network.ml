module Vec = Simgen_base.Vec

type node_id = int

type kind = Pi of int | Gate of Truth_table.t

type node = { kind : kind; fanins : node_id array; name : string option }

type t = {
  mutable net_name : string;
  nodes : node Vec.t;
  mutable pi_ids : node_id list;  (* reversed *)
  mutable po_list : (node_id * string option) list;  (* reversed *)
  mutable fanout_cache : node_id list array option;
  mutable level_cache : int array option;
}

let dummy_node = { kind = Pi (-1); fanins = [||]; name = None }

let create ?(name = "network") () =
  {
    net_name = name;
    nodes = Vec.create ~dummy:dummy_node ();
    pi_ids = [];
    po_list = [];
    fanout_cache = None;
    level_cache = None;
  }

let name t = t.net_name
let set_name t s = t.net_name <- s

let num_nodes t = Vec.length t.nodes

(* Every mutator funnels through here: both derived-data caches go stale
   together, so a stale cache can only be observed through [Unsafe]. *)
let invalidate t =
  t.fanout_cache <- None;
  t.level_cache <- None

let add_pi ?name t =
  let id = num_nodes t in
  let idx = List.length t.pi_ids in
  Vec.push t.nodes { kind = Pi idx; fanins = [||]; name };
  t.pi_ids <- id :: t.pi_ids;
  invalidate t;
  id

let add_gate ?name t f fanins =
  if Truth_table.nvars f <> Array.length fanins then
    invalid_arg "Network.add_gate: arity mismatch";
  let id = num_nodes t in
  Array.iter
    (fun fi ->
      if fi < 0 || fi >= id then invalid_arg "Network.add_gate: bad fanin")
    fanins;
  Vec.push t.nodes { kind = Gate f; fanins; name };
  invalidate t;
  id

let add_const t b = add_gate t (Truth_table.create_const 0 b) [||]

let add_po ?name t id =
  if id < 0 || id >= num_nodes t then invalid_arg "Network.add_po";
  t.po_list <- (id, name) :: t.po_list

let num_pis t = List.length t.pi_ids
let num_pos t = List.length t.po_list
let num_gates t = num_nodes t - num_pis t

let node t id =
  if id < 0 || id >= num_nodes t then invalid_arg "Network: bad node id";
  Vec.get t.nodes id

let kind t id = (node t id).kind
let fanins t id = (node t id).fanins

let func t id =
  match (node t id).kind with
  | Gate f -> f
  | Pi _ -> invalid_arg "Network.func: primary input"

let is_pi t id = match (node t id).kind with Pi _ -> true | Gate _ -> false

let pis t = Array.of_list (List.rev t.pi_ids)
let pos t = Array.of_list (List.rev_map fst t.po_list)

let po_name t i =
  let arr = Array.of_list (List.rev t.po_list) in
  snd arr.(i)

let node_name t id = (node t id).name

let build_fanouts t =
  let fo = Array.make (num_nodes t) [] in
  for id = num_nodes t - 1 downto 0 do
    Array.iter (fun fi -> fo.(fi) <- id :: fo.(fi)) (node t id).fanins
  done;
  t.fanout_cache <- Some fo;
  fo

let fanouts t id =
  match t.fanout_cache with
  | Some fo -> fo.(id)
  | None -> (build_fanouts t).(id)

let iter_nodes t f =
  for id = 0 to num_nodes t - 1 do
    f id
  done

let iter_gates t f =
  iter_nodes t (fun id -> if not (is_pi t id) then f id)

let eval t pi_values =
  if Array.length pi_values <> num_pis t then invalid_arg "Network.eval";
  let vals = Array.make (num_nodes t) false in
  iter_nodes t (fun id ->
      match (node t id).kind with
      | Pi idx -> vals.(id) <- pi_values.(idx)
      | Gate f ->
          let ins = Array.map (fun fi -> vals.(fi)) (node t id).fanins in
          vals.(id) <- Truth_table.eval f ins);
  vals

let eval_pos t pi_values =
  let vals = eval t pi_values in
  Array.map (fun id -> vals.(id)) (pos t)

let compute_levels t =
  let levels = Array.make (num_nodes t) 0 in
  iter_gates t (fun id ->
      let fanins = (node t id).fanins in
      if Array.length fanins > 0 then begin
        let m = Array.fold_left (fun acc fi -> max acc levels.(fi)) 0 fanins in
        levels.(id) <- m + 1
      end);
  levels

let levels t =
  match t.level_cache with
  | Some ls -> ls
  | None ->
      let ls = compute_levels t in
      t.level_cache <- Some ls;
      ls

let cached_levels t = t.level_cache

let max_fanin_arity t =
  let m = ref 0 in
  iter_nodes t (fun id -> m := max !m (Array.length (node t id).fanins));
  !m

let copy t =
  let t' = create ~name:t.net_name () in
  iter_nodes t (fun id ->
      let n = node t id in
      let id' =
        match n.kind with
        | Pi _ -> add_pi ?name:n.name t'
        | Gate f -> add_gate ?name:n.name t' f (Array.copy n.fanins)
      in
      assert (id' = id));
  List.iter (fun (id, name) -> add_po ?name t' id) (List.rev t.po_list);
  t'

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d PIs, %d POs, %d gates, max arity %d" t.net_name
    (num_pis t) (num_pos t) (num_gates t) (max_fanin_arity t)

module Unsafe = struct
  let set_fanins t id fanins =
    let n = node t id in
    Vec.set t.nodes id { n with fanins };
    invalidate t

  let set_level_cache t levels = t.level_cache <- Some levels
end
