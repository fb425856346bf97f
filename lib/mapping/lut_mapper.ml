module Aig = Simgen_aig.Aig
module N = Simgen_network.Network
module TT = Simgen_network.Truth_table

type stats = { luts : int; depth : int; edges : int }

(* Truth table of [root] expressed over the cut [leaves] (sorted node ids):
   evaluate the cone between the leaves and the root by recursion with
   memoisation. *)
let cut_function aig leaves root =
  let k = Array.length leaves in
  let memo = Hashtbl.create 16 in
  let leaf_index = Hashtbl.create 8 in
  Array.iteri (fun i l -> Hashtbl.replace leaf_index l i) leaves;
  let rec table node =
    match Hashtbl.find_opt memo node with
    | Some t -> t
    | None ->
        let t =
          match Hashtbl.find_opt leaf_index node with
          | Some i -> TT.var i k
          | None ->
              if Aig.is_const aig node then TT.create_const k false
              else begin
                assert (Aig.is_and aig node);
                let of_lit l =
                  let t = table (Aig.node_of_lit l) in
                  if Aig.is_complemented l then TT.not_ t else t
                in
                TT.and_ (of_lit (Aig.fanin0 aig node)) (of_lit (Aig.fanin1 aig node))
              end
        in
        Hashtbl.replace memo node t;
        t
  in
  table root

(* Priority cuts kept per node. *)
let cut_limit = 8

(* Depth and area flow of the cut over [leaves], from the best cuts of
   its leaves. The area flow adds in leaf order. *)
let cut_of_leaves ~best_depth ~best_area ~refcounts leaves =
  let depth = ref 0 and area_flow = ref 1.0 in
  for i = 0 to Array.length leaves - 1 do
    let l = leaves.(i) in
    depth := Int.max !depth (best_depth.(l) + 1);
    area_flow :=
      !area_flow +. (best_area.(l) /. float_of_int (Int.max 1 refcounts.(l)))
  done;
  Cut.make leaves ~depth:!depth ~area_flow:!area_flow

(* The first [cut_limit] cuts of [sorted] that no earlier kept cut
   dominates. A cut's fate depends only on the cuts kept before it, so
   stopping at the limit keeps the same cuts as filtering the whole list
   and truncating. *)
let priority_cuts sorted =
  let rec go kept n = function
    | [] -> List.rev kept
    | _ when n = cut_limit -> List.rev kept
    | c :: rest ->
        if List.exists (fun c' -> Cut.dominates c' c) kept then go kept n rest
        else go (c :: kept) (n + 1) rest
  in
  go [] 0 sorted

let map_with_stats ?(k = 6) aig =
  if k < 2 || k > TT.max_vars then invalid_arg "Lut_mapper.map: bad k";
  let n = Aig.num_nodes aig in
  let refcounts = Aig.fanout_counts aig in
  (* AND fanouts not yet enumerated: a node's cut list is dropped when its
     count reaches zero. *)
  let pending = Array.make n 0 in
  Aig.iter_ands aig (fun id ->
      let f0 = Aig.node_of_lit (Aig.fanin0 aig id)
      and f1 = Aig.node_of_lit (Aig.fanin1 aig id) in
      pending.(f0) <- pending.(f0) + 1;
      pending.(f1) <- pending.(f1) + 1);
  let cuts : Cut.t list array = Array.make n [] in
  let best : Cut.t array = Array.make n (Cut.trivial 0) in
  let best_depth = Array.make n 0 in
  let best_area = Array.make n 0.0 in
  (* PIs and the constant node have only the trivial cut. *)
  let init_leaf id =
    let c = Cut.trivial id in
    cuts.(id) <- [ c ];
    best.(id) <- c
  in
  init_leaf 0;
  Array.iter init_leaf (Aig.pis aig);
  let release f =
    pending.(f) <- pending.(f) - 1;
    if pending.(f) = 0 then cuts.(f) <- []
  in
  Aig.iter_ands aig (fun id ->
      let f0 = Aig.node_of_lit (Aig.fanin0 aig id)
      and f1 = Aig.node_of_lit (Aig.fanin1 aig id) in
      (* Newest candidate first: the sort below breaks ties by this order. *)
      let merged = ref [] in
      List.iter
        (fun c0 ->
          List.iter
            (fun c1 ->
              match Cut.merge k c0 c1 with
              | None -> ()
              | Some leaves ->
                  merged :=
                    cut_of_leaves ~best_depth ~best_area ~refcounts leaves
                    :: !merged)
            cuts.(f1))
        cuts.(f0);
      release f0;
      release f1;
      let kept = priority_cuts (List.sort Cut.compare_quality !merged) in
      (match kept with
       | [] -> assert false (* the pairwise trivial-cut merge always fits *)
       | b :: _ ->
           best.(id) <- b;
           best_depth.(id) <- b.Cut.depth;
           best_area.(id) <- b.Cut.area_flow);
      (* The trivial cut enables larger cuts upstream but is never chosen
         for covering (it has no LUT semantics of its own). *)
      if pending.(id) > 0 then cuts.(id) <- kept @ [ Cut.trivial id ]);
  (* Backward cover extraction. *)
  let required = Array.make n false in
  Array.iter
    (fun l ->
      let node = Aig.node_of_lit l in
      if Aig.is_and aig node then required.(node) <- true)
    (Aig.pos aig);
  for id = n - 1 downto 0 do
    if required.(id) && Aig.is_and aig id then
      Array.iter
        (fun leaf ->
          if Aig.is_and aig leaf then required.(leaf) <- true)
        best.(id).Cut.leaves
  done;
  (* Build the LUT network: PIs, then one LUT per required AND node in
     topological order. *)
  let net = N.create ~name:(Aig.name aig) () in
  let node_map = Array.make n (-1) in
  Array.iter (fun id -> node_map.(id) <- N.add_pi net) (Aig.pis aig);
  let edge_count = ref 0 in
  Aig.iter_ands aig (fun id ->
      if required.(id) then begin
        let leaves = best.(id).Cut.leaves in
        let f = cut_function aig leaves id in
        let fanins =
          Array.map
            (fun leaf ->
              if node_map.(leaf) >= 0 then node_map.(leaf)
              else begin
                (* Constant leaf (node 0): materialise a constant LUT. *)
                assert (Aig.is_const aig leaf);
                let c = N.add_const net false in
                node_map.(leaf) <- c;
                c
              end)
            leaves
        in
        edge_count := !edge_count + Array.length fanins;
        node_map.(id) <- N.add_gate net f fanins
      end);
  (* POs: complemented literals get an inverter LUT; constant POs get a
     constant LUT. *)
  let not_table = TT.not_ (TT.var 0 1) in
  Array.iteri
    (fun i l ->
      let node = Aig.node_of_lit l in
      let po_name = Aig.po_name aig i in
      let driver =
        if Aig.is_const aig node then N.add_const net (Aig.is_complemented l)
        else if Aig.is_complemented l then begin
          incr edge_count;
          N.add_gate net not_table [| node_map.(node) |]
        end
        else node_map.(node)
      in
      N.add_po ?name:po_name net driver)
    (Aig.pos aig);
  let depth = Simgen_network.Level.depth net in
  (* Count every gate (constant LUTs included) so the stats match the
     returned network exactly. *)
  (net, { luts = N.num_gates net; depth; edges = !edge_count })

let map ?k aig = fst (map_with_stats ?k aig)
