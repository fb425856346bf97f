let append_copy result net ~feeders =
  (* Instantiate one copy of [net] inside [result]; PI [i] of the copy is
     driven by [feeders.(i)] when available, otherwise by a fresh PI.
     Returns the result-ids of the copy's POs. *)
  let map = Array.make (Network.num_nodes net) (-1) in
  Network.iter_nodes net (fun id ->
      match Network.kind net id with
      | Network.Pi idx ->
          map.(id) <-
            (if idx < Array.length feeders then feeders.(idx)
             else Network.add_pi result)
      | Network.Gate f ->
          let fanins = Array.map (fun fi -> map.(fi)) (Network.fanins net id) in
          map.(id) <- Network.add_gate result f fanins);
  Array.map (fun id -> map.(id)) (Network.pos net)

let stack net k =
  if k < 1 then invalid_arg "Stack_networks.stack";
  let result =
    Network.create ~name:(Printf.sprintf "%s_x%d" (Network.name net) k) ()
  in
  let n_pis = Network.num_pis net in
  let rec go i feeders =
    let pos = append_copy result net ~feeders in
    if i = k then Array.iter (fun id -> Network.add_po result id) pos
    else begin
      (* Surplus POs that do not feed the next copy become stack POs. *)
      if Array.length pos > n_pis then
        Array.iteri (fun j id -> if j >= n_pis then Network.add_po result id) pos;
      go (i + 1) pos
    end
  in
  go 1 [||];
  (* The copies were spliced through the raw mutators above; force the
     level cache so consumers (sweepers read levels at creation) start
     from a fresh computation rather than anything stale. *)
  ignore (Network.levels result);
  result
