module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Sat = Simgen_sat
module Tseitin = Simgen_sat.Tseitin
module Bdd = Simgen_bdd.Bdd
module Rng = Simgen_base.Rng
module Simulator = Simgen_sim.Simulator
module D = Diagnostic

(* ------------------------- proof plumbing ------------------------- *)

type outcome = Proved of string | Refuted | Gave_up

(* Decide a query posed as "these clauses are unsatisfiable" on a fresh
   recording env ([Tseitin.create ~record:true]): every clause is kept so
   an UNSAT answer only counts once its DRUP proof re-checks — the lint
   never trusts the solver's word alone. The witness string records the
   trimmed, verified proof size. *)
let decide ~budget env =
  match
    Sat.Solver.solve_limited
      ~limits:(Sat.Solver.Limits.conflicts budget)
      (Tseitin.solver env)
  with
  | Sat.Solver.LSat -> Refuted
  | Sat.Solver.LUnknown -> Gave_up
  | Sat.Solver.LUnsat -> (
      match Tseitin.checked_proof env with
      | Some (_, proof) ->
          Proved (Printf.sprintf "drup %d steps, checked" (List.length proof))
      | None -> Gave_up)

(* ------------------------------ run ------------------------------- *)

(* Random 64-vector simulation batches that harvest the candidates. *)
let rounds = 4

let run ?(seed = 1) ?(budget = 2000) ?(bdd_nodes = 50_000) net =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let unknown ~loc what =
    add
      (D.info ~loc "S008" "unknown: %s (budget %d conflicts exhausted)" what
         budget)
  in
  let nn = N.num_nodes net in
  let rng = Rng.create seed in
  (* Signatures: [rounds] node-word arrays from random 64-vector
     batches. *)
  let node_words =
    Array.init rounds (fun _ ->
        Simulator.simulate_word net (Simulator.random_word rng net))
  in
  let sim = Simulator.scratch () in
  let signature id = Array.init rounds (fun r -> node_words.(r).(id)) in
  let sig_const b id =
    let w = if b then -1L else 0L in
    Array.for_all (fun nw -> nw.(id) = w) node_words
  in
  (* The BDD engine, built lazily and at most once, under its node
     quota; [None] when the network blows the quota. *)
  let bdds =
    lazy
      (try
         let m = Bdd.manager ~max_nodes:bdd_nodes (max 1 (N.num_pis net)) in
         Some (m, Bdd.build_network m net)
       with Bdd.Node_limit_exceeded -> None)
  in
  let bdd_equal a b complement =
    match Lazy.force bdds with
    | None -> None
    | Some (m, roots) ->
        let rb = if complement then Bdd.not_ m roots.(b) else roots.(b) in
        Some (Bdd.equal roots.(a) rb)
  in
  let bdd_const id =
    match Lazy.force bdds with
    | None -> None
    | Some (m, roots) ->
        if Bdd.is_zero m roots.(id) then Some false
        else if Bdd.is_one m roots.(id) then Some true
        else None
  in

  (* S001: constant-signature gates whose local function is not constant.
     Prove by asserting the opposite value over the cone. *)
  N.iter_gates net (fun id ->
      if TT.is_const (N.func net id) = None then
        let candidate b = sig_const b id in
        let prove b =
          let loc = D.Node id in
          let env = Tseitin.create ~record:true () in
          let vars = Tseitin.encode_cones env net [ id ] in
          (* UNSAT of [node = not b] proves the node is always [b]. *)
          Tseitin.add env [ Sat.Literal.make vars.(id) b ];
          match decide ~budget env with
          | Proved w ->
              add
                (D.warn ~loc "S001" "gate is provably constant %b (%s)" b w)
          | Refuted -> ()
          | Gave_up -> (
              match bdd_const id with
              | Some b' when b' = b ->
                  add
                    (D.warn ~loc "S001"
                       "gate is provably constant %b (bdd, budget %d \
                        exhausted)"
                       b budget)
              | Some _ -> ()
              | None -> unknown ~loc (Printf.sprintf "gate %d constant?" id))
        in
        if candidate true then prove true
        else if candidate false then prove false);

  (* S002: a fanin the gate's function provably never depends on, over
     the care set of reachable fanin combinations. Candidates: the local
     cofactors differ as truth tables but never on a simulated batch. *)
  N.iter_gates net (fun id ->
      let tt = N.func net id in
      let fanins = N.fanins net id in
      if Array.length fanins >= 2 then
        Array.iteri
          (fun i _ ->
            if TT.depends_on tt i then begin
              let c0 = TT.cofactor tt i false
              and c1 = TT.cofactor tt i true in
              let sim_differs =
                Array.exists
                  (fun nw ->
                    Simulator.eval_lut sim c0 fanins nw
                    <> Simulator.eval_lut sim c1 fanins nw)
                  node_words
              in
              if not sim_differs then begin
                let loc = D.Node id in
                let env = Tseitin.create ~record:true () in
                let vars = Tseitin.encode_cones env net (Array.to_list fanins) in
                let input i = vars.(fanins.(i)) in
                let y0 = Sat.Solver.new_var (Tseitin.solver env) in
                let y1 = Sat.Solver.new_var (Tseitin.solver env) in
                Tseitin.gate (Tseitin.add env) c0 y0 input;
                Tseitin.gate (Tseitin.add env) c1 y1 input;
                Tseitin.add env [ Sat.Literal.pos (Tseitin.xor_var env y0 y1) ];
                match decide ~budget env with
                | Proved w ->
                    add
                      (D.warn ~loc "S002"
                         "fanin %d (node %d) is semantically redundant: \
                          cofactors coincide on the care set (%s)"
                         i fanins.(i) w)
                | Refuted -> ()
                | Gave_up ->
                    unknown ~loc
                      (Printf.sprintf "gate %d fanin %d redundant?" id i)
              end
            end)
          fanins);

  (* Shared prover for node equivalence / complement claims. *)
  let prove_pair ~loc ~code ~severity ~describe a b complement =
    let env = Tseitin.create ~record:true () in
    let vars = Tseitin.encode_cones env net [ a; b ] in
    let va = vars.(a) and vb = vars.(b) in
    (if complement then begin
       (* UNSAT of [a = b] proves a == not b. *)
       Tseitin.add env Sat.Literal.[ neg va; pos vb ];
       Tseitin.add env Sat.Literal.[ pos va; neg vb ]
     end
     else Tseitin.add env [ Sat.Literal.pos (Tseitin.xor_var env va vb) ]);
    let report w =
      let mk = if severity = D.Warning then D.warn else D.info in
      add (mk ~loc code "%s (%s)" (describe ()) w)
    in
    match decide ~budget env with
    | Proved w -> report w
    | Refuted -> ()
    | Gave_up -> (
        match bdd_equal a b complement with
        | Some true -> report (Printf.sprintf "bdd, budget %d exhausted" budget)
        | Some false -> ()
        | None -> unknown ~loc (describe () ^ "?"))
  in

  (* S003/S004: bucket nodes by signature up to complement; each later
     bucket member is checked against the bucket's first. Constant
     signatures are S001's business. *)
  let buckets = Hashtbl.create 256 in
  N.iter_nodes net (fun id ->
      if not (sig_const true id || sig_const false id) then begin
        let s = signature id in
        let sc = Array.map Int64.lognot s in
        let key_of a = Array.to_list a in
        let ks = key_of s and kc = key_of sc in
        let key, negated = if compare ks kc <= 0 then (ks, false) else (kc, true) in
        match Hashtbl.find_opt buckets key with
        | None -> Hashtbl.add buckets key (id, negated)
        | Some (rep, rep_neg) ->
            if not (N.is_pi net id) then
              let complement = negated <> rep_neg in
              let code = if complement then "S004" else "S003" in
              let severity = if complement then D.Info else D.Warning in
              prove_pair ~loc:(D.Node id) ~code ~severity
                ~describe:(fun () ->
                  Printf.sprintf "gate %d is provably %s node %d" id
                    (if complement then "the complement of" else
                       "equivalent to")
                    rep)
                rep id complement
      end);

  (* S005/S006: PO pairs with matching (or complementary) driver
     signatures; each PO is paired with the smallest matching one. *)
  let pos = N.pos net in
  let claimed = Array.make (Array.length pos) false in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if j > i && not claimed.(j) then begin
            let sa = signature a and sb = signature b in
            let equal_sig = sa = sb in
            let comp_sig = sa = Array.map Int64.lognot sb in
            if equal_sig || comp_sig then begin
              claimed.(j) <- true;
              if a = b then
                add
                  (D.warn ~loc:(D.Named (Printf.sprintf "po %d" j)) "S005"
                     "PO %d and PO %d are the same node (%d)" i j a)
              else
                let complement = comp_sig && not equal_sig in
                let code = if complement then "S006" else "S005" in
                let severity = if complement then D.Info else D.Warning in
                prove_pair
                  ~loc:(D.Named (Printf.sprintf "po %d" j))
                  ~code ~severity
                  ~describe:(fun () ->
                    Printf.sprintf "PO %d is provably %s PO %d" j
                      (if complement then "the complement of" else "equal to")
                      i)
                  a b complement
            end
          end)
        pos)
    pos;

  (* S007: gates whose flip no PO can observe. Candidates survive a
     simulated flip of every batch; the proof is a two-copy miter where
     only the transitive fanout is duplicated and the copy sees the
     negated gate. *)
  let po_set = Array.make nn false in
  Array.iter (fun p -> po_set.(p) <- true) pos;
  (* Transitive fanout, by ascending id (topological). *)
  let tfo_of g =
    let mark = Array.make nn false in
    mark.(g) <- true;
    for id = g + 1 to nn - 1 do
      if (not (N.is_pi net id)) && Array.exists (fun f -> mark.(f)) (N.fanins net id)
      then mark.(id) <- true
    done;
    mark.(g) <- false;
    mark
  in
  N.iter_gates net (fun g ->
      if not po_set.(g) then begin
        let tfo = tfo_of g in
        let reaches_po = Array.exists (fun p -> tfo.(p) || p = g) pos in
        (* Gates that reach no PO at all are structurally dangling —
           Net_lint territory, not a semantic finding. *)
        if reaches_po then begin
          let sim_observable =
            Array.exists
              (fun nw ->
                let flipped = Array.copy nw in
                flipped.(g) <- Int64.lognot nw.(g);
                for id = g + 1 to nn - 1 do
                  if tfo.(id) then
                    flipped.(id) <-
                      Simulator.eval_lut sim (N.func net id) (N.fanins net id)
                        flipped
                done;
                Array.exists (fun p -> flipped.(p) <> nw.(p)) pos)
              node_words
          in
          if not sim_observable then begin
            let loc = D.Node g in
            let env = Tseitin.create ~record:true () in
            let vars = Tseitin.encode_cones env net (Array.to_list pos) in
            if vars.(g) < 0 then
              (* In no PO cone after encoding: dangling, skip. *)
              ()
            else begin
              (* Copy B of the TFO over [g]'s negation. *)
              let vars_b = Array.make nn (-1) in
              vars_b.(g) <- Sat.Solver.new_var (Tseitin.solver env);
              Tseitin.add env Sat.Literal.[ pos vars_b.(g); pos vars.(g) ];
              Tseitin.add env Sat.Literal.[ neg vars_b.(g); neg vars.(g) ];
              let var_b id = if vars_b.(id) >= 0 then vars_b.(id) else vars.(id) in
              for id = g + 1 to nn - 1 do
                if tfo.(id) && vars.(id) >= 0 then begin
                  let y = Sat.Solver.new_var (Tseitin.solver env) in
                  vars_b.(id) <- y;
                  let fanins = N.fanins net id in
                  Tseitin.gate (Tseitin.add env) (N.func net id) y (fun i ->
                      var_b fanins.(i))
                end
              done;
              (* Some affected PO must differ. *)
              let diff =
                Array.to_list pos
                |> List.filter (fun p -> vars_b.(p) >= 0)
                |> List.map (fun p ->
                       Sat.Literal.pos (Tseitin.xor_var env vars.(p) vars_b.(p)))
              in
              match diff with
              | [] -> () (* flip reaches no PO variable: dangling *)
              | _ -> (
                  Tseitin.add env diff;
                  match decide ~budget env with
                  | Proved w ->
                      add
                        (D.warn ~loc "S007"
                           "gate is dead logic: flipping it is provably \
                            unobservable at every PO (%s)"
                           w)
                  | Refuted -> ()
                  | Gave_up ->
                      unknown ~loc (Printf.sprintf "gate %d dead?" g))
            end
          end
        end
      end);
  List.rev !diags
