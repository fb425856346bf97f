module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Mffc = Simgen_network.Mffc
module D = Diagnostic

(* Recompute levels from scratch, trusting nothing cached: the whole point
   of N010 is to cross-check Network's own cache. Only sound when the
   network passed the structural checks (fanins in range and backward). *)
let fresh_levels net =
  let n = N.num_nodes net in
  let levels = Array.make n 0 in
  for id = 0 to n - 1 do
    match N.kind net id with
    | N.Pi _ -> ()
    | N.Gate _ ->
        Array.iter
          (fun fi -> if levels.(fi) + 1 > levels.(id) then levels.(id) <- levels.(fi) + 1)
          (N.fanins net id)
  done;
  levels

(* Cycle detection by iterative coloured DFS over fanin edges. The IR
   invariant (fanins strictly below the node) makes cycles impossible, so
   any cycle implies a forward edge — but the converse is false, and the
   two deserve distinct codes: N001 is "your network loops", N003 is "your
   ids are out of order". Out-of-range fanins are not followed. *)
let find_cycles net =
  let n = N.num_nodes net in
  let color = Array.make n 0 in
  (* 0 white, 1 gray, 2 black *)
  let diags = ref [] in
  let rec visit id =
    if color.(id) = 0 then begin
      color.(id) <- 1;
      (match N.kind net id with
       | N.Pi _ -> ()
       | N.Gate _ ->
           Array.iter
             (fun fi ->
               if fi >= 0 && fi < n then
                 if color.(fi) = 1 then
                   diags :=
                     D.error ~loc:(D.Node id) "N001"
                       "combinational cycle through fanin %d" fi
                     :: !diags
                 else visit fi)
             (N.fanins net id));
      color.(id) <- 2
    end
  in
  for id = 0 to n - 1 do
    visit id
  done;
  List.rev !diags

let structural net =
  let n = N.num_nodes net in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  N.iter_nodes net (fun id ->
      match N.kind net id with
      | N.Pi _ -> ()
      | N.Gate f ->
          let fanins = N.fanins net id in
          let arity = Array.length fanins in
          if TT.nvars f <> arity then
            add
              (D.error ~loc:(D.Node id) "N002"
                 "gate arity %d disagrees with truth-table width %d" arity
                 (TT.nvars f));
          Array.iter
            (fun fi ->
              if fi < 0 || fi >= n then
                add
                  (D.error ~loc:(D.Node id) "N003" "fanin %d out of range" fi)
              else if fi >= id then
                add
                  (D.error ~loc:(D.Node id) "N003"
                     "fanin %d is not below the node (forward reference)" fi))
            fanins;
          (* Duplicate fanins: legal, but usually a generator bug. *)
          let seen = Hashtbl.create (max 4 arity) in
          Array.iter
            (fun fi ->
              if Hashtbl.mem seen fi then
                add
                  (D.info ~loc:(D.Node id) "N013" "duplicate fanin %d" fi)
              else Hashtbl.add seen fi ())
            fanins);
  Array.iteri
    (fun i po ->
      if po < 0 || po >= n then
        add
          (D.error ~loc:(D.Named (Printf.sprintf "po %d" i)) "N005"
             "primary output references node %d, out of range" po))
    (N.pos net);
  List.rev !diags

let functional net =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  N.iter_nodes net (fun id ->
      match N.kind net id with
      | N.Pi _ -> ()
      | N.Gate f ->
          let arity = Array.length (N.fanins net id) in
          if TT.nvars f <> arity then ()
          else begin
            match TT.is_const f with
            | Some b ->
                if arity > 0 then
                  add
                    (D.info ~loc:(D.Node id) "N008"
                       "constant-%b gate with %d fanins (foldable)" b arity)
            | None ->
                if arity = 1 && TT.equal f (TT.var 0 1) then
                  add
                    (D.info ~loc:(D.Node id) "N009"
                       "identity buffer (pass-through gate)")
                else
                  for i = 0 to arity - 1 do
                    if not (TT.depends_on f i) then
                      add
                        (D.info ~loc:(D.Node id) "N012"
                           "function ignores fanin %d" i)
                  done
          end);
  List.rev !diags

let names net =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let check_dup what tbl name loc =
    match name with
    | None -> ()
    | Some name ->
        if Hashtbl.mem tbl name then
          add (D.warn ~loc "N006" "duplicate %s name %S" what name)
        else Hashtbl.add tbl name ()
  in
  let node_names = Hashtbl.create 64 in
  N.iter_nodes net (fun id ->
      check_dup "node" node_names (N.node_name net id) (D.Node id));
  let po_names = Hashtbl.create 16 in
  Array.iteri
    (fun i _ ->
      check_dup "primary output" po_names (N.po_name net i)
        (D.Named (Printf.sprintf "po %d" i)))
    (N.pos net);
  List.rev !diags

let reachability net =
  let n = N.num_nodes net in
  let reach = Array.make n false in
  let stack = ref [] in
  Array.iter
    (fun po -> if po >= 0 && po < n then stack := po :: !stack)
    (N.pos net);
  let rec mark () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        if not reach.(id) then begin
          reach.(id) <- true;
          (match N.kind net id with
           | N.Pi _ -> ()
           | N.Gate _ ->
               Array.iter
                 (fun fi -> if fi >= 0 && fi < n then stack := fi :: !stack)
                 (N.fanins net id))
        end;
        mark ()
  in
  mark ();
  let diags = ref [] in
  N.iter_gates net (fun id ->
      if not reach.(id) then
        diags :=
          D.info ~loc:(D.Node id) "N004"
            "gate unreachable from any primary output"
          :: !diags);
  List.rev !diags

let stale_levels net =
  match N.cached_levels net with
  | None -> []
  | Some cache ->
      let fresh = fresh_levels net in
      if Array.length cache <> Array.length fresh then
        [ D.error "N010"
            "level cache has %d entries for %d nodes (stale after mutation)"
            (Array.length cache) (Array.length fresh) ]
      else begin
        let bad = ref [] in
        Array.iteri
          (fun id l ->
            if l <> fresh.(id) && List.length !bad < 5 then
              bad :=
                D.error ~loc:(D.Node id) "N010"
                  "cached level %d but recomputed %d (stale level cache)" l
                  fresh.(id)
                :: !bad)
          cache;
        List.rev !bad
      end

(* The MFFC containment audit samples at most this many gate roots, to keep
   the lint near-linear on big networks. *)
let max_mffc_roots = 512

let mffc_containment net =
  let gates = ref [] in
  N.iter_gates net (fun id -> gates := id :: !gates);
  let gates = Array.of_list (List.rev !gates) in
  let ng = Array.length gates in
  let stride =
    if ng <= max_mffc_roots then 1 else (ng + max_mffc_roots - 1) / max_mffc_roots
  in
  let is_po = Array.make (N.num_nodes net) false in
  Array.iter (fun po -> is_po.(po) <- true) (N.pos net);
  let diags = ref [] in
  let i = ref 0 in
  while !i < ng && List.length !diags < 10 do
    let root = gates.(!i) in
    let members = Mffc.compute net root in
    let member_set = Hashtbl.create 16 in
    List.iter (fun m -> Hashtbl.add member_set m ()) members;
    List.iter
      (fun m ->
        if m <> root then begin
          (* Interior MFFC nodes feed only the cone: an outside fanout or a
             PO tap means the node is shared, so it cannot be in the MFFC. *)
          if is_po.(m) then
            diags :=
              D.error ~loc:(D.Node m) "N011"
                "MFFC of node %d contains primary output %d" root m
              :: !diags;
          List.iter
            (fun fo ->
              if not (Hashtbl.mem member_set fo) then
                diags :=
                  D.error ~loc:(D.Node m) "N011"
                    "MFFC of node %d leaks: member %d has fanout %d outside \
                     the cone"
                    root m fo
                  :: !diags)
            (N.fanouts net m)
        end)
      members;
    i := !i + stride
  done;
  List.rev !diags

let run net =
  let structural_diags = structural net in
  let cycle_diags = find_cycles net in
  let base =
    structural_diags @ cycle_diags @ names net @ functional net
    @ reachability net
  in
  let has_structural_error =
    List.exists (fun d -> d.D.severity = D.Error) (structural_diags @ cycle_diags)
  in
  (* Level recomputation and MFFC traversal assume a well-formed DAG; on a
     corrupted one they would loop or crash rather than diagnose. *)
  if has_structural_error then base
  else base @ stale_levels net @ mffc_containment net
