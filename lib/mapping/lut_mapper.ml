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

let map_with_stats ?(k = 6) aig =
  if k < 2 || k > TT.max_vars then invalid_arg "Lut_mapper.map: bad k";
  let n = Aig.num_nodes aig in
  let refcounts = Aig.fanout_counts aig in
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
  Aig.iter_ands aig (fun id ->
      let f0 = Aig.node_of_lit (Aig.fanin0 aig id)
      and f1 = Aig.node_of_lit (Aig.fanin1 aig id) in
      let merged = ref [] in
      List.iter
        (fun c0 ->
          List.iter
            (fun c1 ->
              match Cut.merge k c0 c1 with
              | None -> ()
              | Some leaves ->
                  let depth =
                    Array.fold_left
                      (fun acc l -> max acc (best_depth.(l) + 1))
                      0 leaves
                  in
                  let area_flow =
                    Array.fold_left
                      (fun acc l ->
                        acc +. (best_area.(l) /. float_of_int (max 1 refcounts.(l))))
                      1.0 leaves
                  in
                  merged :=
                    { Cut.leaves; depth; area_flow } :: !merged)
            cuts.(f1))
        cuts.(f0);
      (* Deduplicate, remove dominated cuts, keep the best few. *)
      let sorted = List.sort Cut.compare_quality !merged in
      let kept =
        List.fold_left
          (fun kept c ->
            if
              List.exists
                (fun c' -> Cut.equal_leaves c' c || Cut.dominates c' c)
                kept
            then kept
            else c :: kept)
          [] sorted
        |> List.rev
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let kept = take cut_limit kept in
      (match kept with
       | [] -> assert false (* the pairwise trivial-cut merge always fits *)
       | b :: _ ->
           best.(id) <- b;
           best_depth.(id) <- b.Cut.depth;
           best_area.(id) <- b.Cut.area_flow);
      (* The trivial cut enables larger cuts upstream but is never chosen
         for covering (it has no LUT semantics of its own). *)
      cuts.(id) <- kept @ [ Cut.trivial id ]);
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
  let lut_count = ref 0 and edge_count = ref 0 in
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
        incr lut_count;
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
          incr lut_count;
          incr edge_count;
          N.add_gate net not_table [| node_map.(node) |]
        end
        else node_map.(node)
      in
      N.add_po ?name:po_name net driver)
    (Aig.pos aig);
  ignore !lut_count;
  let depth = Simgen_network.Level.depth net in
  (* Count every gate (constant LUTs included) so the stats match the
     returned network exactly. *)
  (net, { luts = N.num_gates net; depth; edges = !edge_count })

let map ?k aig = fst (map_with_stats ?k aig)
