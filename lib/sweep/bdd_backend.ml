module N = Simgen_network.Network
module Bdd = Simgen_bdd.Bdd

(* The node quota of the ladder's BDD rung: past it the pair is
   quarantined. *)
let quota = 10_000

let check_pair net a b =
  let m = Bdd.manager ~max_nodes:quota (N.num_pis net) in
  match
    let cone = Simgen_network.Cone.fanin_cone_many net [ a; b ] in
    let bdds = Bdd.build m net cone in
    (bdds.(a), bdds.(b))
  with
  | fa, fb ->
      if Bdd.equal fa fb then Sat_session.Equal
      else begin
        match Bdd.any_sat m (Bdd.xor m fa fb) with
        | Some cex -> Sat_session.Counterexample cex
        | None -> Sat_session.Equal
      end
  | exception Bdd.Node_limit_exceeded -> Sat_session.Unknown

let check_outputs net1 net2 =
  if N.num_pis net1 <> N.num_pis net2 || N.num_pos net1 <> N.num_pos net2
  then invalid_arg "Bdd_backend.check_outputs";
  let m = Bdd.manager ~max_nodes:500_000 (N.num_pis net1) in
  match
    let b1 = Bdd.build_network m net1 in
    let b2 = Bdd.build_network m net2 in
    let pos1 = N.pos net1 and pos2 = N.pos net2 in
    let rec check i =
      if i >= Array.length pos1 then None
      else
        let f1 = b1.(pos1.(i)) and f2 = b2.(pos2.(i)) in
        if Bdd.equal f1 f2 then check (i + 1)
        else
          match Bdd.any_sat m (Bdd.xor m f1 f2) with
          | Some cex -> Some (i, cex)
          | None -> check (i + 1)
    in
    check 0
  with
  | result -> Some result
  | exception Bdd.Node_limit_exceeded -> None

