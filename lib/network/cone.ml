(* Traversals use explicit stacks: stacked benchmark networks (§6.4) can be
   deep enough to overflow the OCaml call stack with naive recursion. *)

module Vec = Simgen_base.Vec

let rec push_reversed stack = function
  | [] -> ()
  | id :: rest ->
      push_reversed stack rest;
      Vec.push stack id

(* The stack holds [id] for "enter" and [lnot id] (negative) for "exit":
   a node is stamped when entered and appended to [post] on exit. *)
let mark_fanin_cones ?post net ~stamp ~epoch ~stack roots =
  Vec.clear stack;
  push_reversed stack roots;
  while not (Vec.is_empty stack) do
    let x = Vec.pop stack in
    if x < 0 then begin
      match post with Some order -> Vec.push order (lnot x) | None -> ()
    end
    else if stamp.(x) <> epoch then begin
      stamp.(x) <- epoch;
      Vec.push stack (lnot x);
      let fanins = Network.fanins net x in
      for i = Array.length fanins - 1 downto 0 do
        if stamp.(fanins.(i)) <> epoch then Vec.push stack fanins.(i)
      done
    end
  done

let fanin_cone_many net targets =
  let post = Vec.create ~dummy:0 () in
  mark_fanin_cones ~post net
    ~stamp:(Array.make (Network.num_nodes net) 0)
    ~epoch:1 ~stack:(Vec.create ~dummy:0 ()) targets;
  Vec.to_list post

let member_mask net ids =
  let mask = Array.make (Network.num_nodes net) false in
  List.iter (fun id -> mask.(id) <- true) ids;
  mask
