(* Collect the conjunction leaves of the single-fanout AND tree rooted at
   [id]: fanins that are uncomplemented, single-fanout AND nodes are
   flattened recursively. *)
let conjunction_leaves aig refcounts id =
  let rec go l acc =
    let n = Aig.node_of_lit l in
    if (not (Aig.is_complemented l)) && Aig.is_and aig n && refcounts.(n) = 1
    then go (Aig.fanin1 aig n) (go (Aig.fanin0 aig n) acc)
    else l :: acc
  in
  List.rev (go (Aig.fanin1 aig id) (go (Aig.fanin0 aig id) []))

(* Rebuild bottom-up, re-associating every single-fanout conjunction tree
   as a left-leaning chain over its leaves in shuffled order. Interior
   nodes are built too: they are strashed away if unused and keep [map]
   total. *)
let shuffle_rebuild rng aig =
  let refcounts = Aig.fanout_counts aig in
  let aig' = Aig.create ~name:(Aig.name aig) () in
  let map = Array.make (Aig.num_nodes aig) Aig.false_ in
  Array.iter (fun id -> map.(id) <- Aig.add_pi aig') (Aig.pis aig);
  let map_lit l =
    let m = map.(Aig.node_of_lit l) in
    if Aig.is_complemented l then Aig.not_ m else m
  in
  Aig.iter_ands aig (fun id ->
      let leaves =
        Array.of_list (List.map map_lit (conjunction_leaves aig refcounts id))
      in
      Simgen_base.Rng.shuffle rng leaves;
      map.(id) <-
        (match Array.to_list leaves with
        | [] -> Aig.true_
        | first :: rest -> List.fold_left (Aig.and_ aig') first rest));
  Array.iteri
    (fun i l -> Aig.add_po ?name:(Aig.po_name aig i) aig' (map_lit l))
    (Aig.pos aig);
  Aig.cleanup aig'
