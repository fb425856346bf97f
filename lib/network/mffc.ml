module Vec = Simgen_base.Vec

(* Reusable workspace. Marking a root uses two stamps: [2k] for "in the
   fanin cone", then [2k + 1] for "in the MFFC", so one array serves every
   root without clearing. *)
type scratch = {
  net : Network.t;
  po_tapped : bool array;
  stamp : int array;
  mutable epoch : int;
  stack : int Vec.t;
  cone : int Vec.t;  (* the current root's fanin cone, fanins first *)
}

let scratch net =
  let po_tapped = Array.make (Network.num_nodes net) false in
  Array.iter (fun po -> po_tapped.(po) <- true) (Network.pos net);
  {
    net;
    po_tapped;
    stamp = Array.make (Network.num_nodes net) 0;
    epoch = 0;
    stack = Vec.create ~dummy:0 ();
    cone = Vec.create ~dummy:0 ();
  }

let member s id = s.stamp.(id) = s.epoch + 1

let rec all_members s = function
  | [] -> true
  | fo :: rest -> member s fo && all_members s rest

(* Stamp the MFFC of a gate root. The cone is in fanins-first order;
   visiting it in reverse puts every node after all of its fanouts that
   lie in the cone, so the "all fanouts already in the MFFC" test is
   well-defined. A PO tap is an external use: a path from the node to a
   PO that does not pass through the root, even when every gate fanout
   stays inside the cone. *)
let mark s root =
  s.epoch <- s.epoch + 2;
  Vec.clear s.cone;
  Cone.mark_fanin_cones ~post:s.cone s.net ~stamp:s.stamp ~epoch:s.epoch
    ~stack:s.stack [ root ];
  s.stamp.(root) <- s.epoch + 1;
  for k = Vec.length s.cone - 1 downto 0 do
    let id = Vec.get s.cone k in
    if id <> root && (not (Network.is_pi s.net id)) && not s.po_tapped.(id) then
      match Network.fanouts s.net id with
      | [] -> ()
      | fos -> if all_members s fos then s.stamp.(id) <- s.epoch + 1
  done

let compute net root =
  if Network.is_pi net root then []
  else begin
    let s = scratch net in
    mark s root;
    List.filter (member s) (Vec.to_list s.cone)
  end

(* Equation (2) over the leaves: members with no fanin in the MFFC. *)
let depth_with s levels root =
  if Network.is_pi s.net root then 0.0
  else begin
    mark s root;
    let total = ref 0 and leaves = ref 0 in
    Vec.iter
      (fun id ->
        if member s id && not (Array.exists (member s) (Network.fanins s.net id))
        then begin
          total := !total + (levels.(root) - levels.(id));
          incr leaves
        end)
      s.cone;
    float_of_int !total /. float_of_int !leaves
  end

let depth net levels root = depth_with (scratch net) levels root

type cache = { s : scratch; levels : int array; depths : float array }

let cache net =
  {
    s = scratch net;
    levels = Level.compute net;
    depths = Array.make (Network.num_nodes net) Float.nan;
  }

let cached_depth c id =
  let d = c.depths.(id) in
  if Float.is_nan d then begin
    let d = depth_with c.s c.levels id in
    c.depths.(id) <- d;
    d
  end
  else d
