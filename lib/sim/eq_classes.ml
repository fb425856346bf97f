module N = Simgen_network.Network

type t = {
  net : N.t;
  mutable groups : int list list;  (* classes of size >= 2, members sorted *)
  (* node id -> its class, [] for singletons and PIs. Only the members of
     a class that splits are re-indexed, so [class_of] is one lookup — the
     sweeper's worklist consults it once per SAT call. *)
  by_node : int list array;
}

let index t group = List.iter (fun id -> t.by_node.(id) <- group) group

let create net =
  let gates = ref [] in
  N.iter_gates net (fun id -> gates := id :: !gates);
  let members = List.rev !gates in
  let groups = if List.length members >= 2 then [ members ] else [] in
  let t = { net; groups; by_node = Array.make (N.num_nodes net) [] } in
  List.iter (index t) groups;
  t

let split_group key group =
  (* Partition a class by a per-node key; keep only parts of size >= 2. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let k = key id in
      Hashtbl.replace tbl k (id :: (Option.value ~default:[] (Hashtbl.find_opt tbl k))))
    group;
  Hashtbl.fold
    (fun _ members acc ->
      match members with
      | [] | [ _ ] -> acc
      | ms -> List.rev ms :: acc)
    tbl []

let rec agree same r = function
  | [] -> true
  | id :: rest -> same r id && agree same r rest

let uniform same = function [] -> true | r :: rest -> agree same r rest

(* A class whose members agree on the new [values] is kept as it is; the
   list is rebuilt and re-sorted only when some class splits. *)
let refine_with t equal values =
  let same a b = equal values.(a) values.(b) in
  if not (List.for_all (uniform same) t.groups) then
    t.groups <-
      List.concat_map
        (fun group ->
          if uniform same group then [ group ]
          else begin
            List.iter (fun id -> t.by_node.(id) <- []) group;
            let parts = split_group (fun id -> values.(id)) group in
            List.iter (index t) parts;
            parts
          end)
        t.groups
      |> List.sort (fun a b ->
             match (a, b) with
             | x :: _, y :: _ -> compare x y
             | _ -> assert false)

let refine_word t words = refine_with t Int64.equal words

let classes t = t.groups

let num_classes t = List.length t.groups

let cost t =
  List.fold_left (fun acc g -> acc + List.length g - 1) 0 t.groups

let class_of t id = t.by_node.(id)

