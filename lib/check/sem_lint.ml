module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Cube = Simgen_network.Cube
module Isop = Simgen_network.Isop
module Sat = Simgen_sat
module Bdd = Simgen_bdd.Bdd
module Rng = Simgen_base.Rng
module Simulator = Simgen_sim.Simulator
module D = Diagnostic

(* ------------------------- proof plumbing ------------------------- *)

(* One fresh recording solver per query: every clause is kept so an
   UNSAT answer can be re-checked by reverse unit propagation before it
   becomes a finding. The lint never trusts the solver's word alone. *)
type ctx = {
  solver : Sat.Solver.t;
  vars : int array;  (* node id -> CNF var, -1 outside the encoding *)
  recorded : Sat.Literal.t list list ref;
}

let fresh_ctx net =
  let solver = Sat.Solver.create () in
  Sat.Solver.enable_proof solver;
  { solver; vars = Array.make (N.num_nodes net) (-1); recorded = ref [] }

let addc ctx c =
  ctx.recorded := c :: !(ctx.recorded);
  Sat.Solver.add_clause ctx.solver c

let var_of ctx id =
  if ctx.vars.(id) < 0 then ctx.vars.(id) <- Sat.Solver.new_var ctx.solver;
  ctx.vars.(id)

(* Clauses of [y <-> tt(inputs)] from the ISOP rows, same shape as the
   sweep miters use. *)
let encode_tt ctx y tt inputs =
  match TT.is_const tt with
  | Some b -> addc ctx [ Sat.Literal.make y (not b) ]
  | None ->
      List.iter
        (fun (c : Cube.t) ->
          let clause = ref [ Sat.Literal.make y (not c.Cube.out) ] in
          Array.iteri
            (fun i l ->
              match l with
              | Cube.DC -> ()
              | Cube.T -> clause := Sat.Literal.neg inputs.(i) :: !clause
              | Cube.F -> clause := Sat.Literal.pos inputs.(i) :: !clause)
            c.Cube.lits;
          addc ctx !clause)
        (Isop.rows tt)

(* Encode the fanin cones of [roots] into [ctx] (explicit-stack DFS, ids
   are topological by construction). *)
let encode_cones ctx net roots =
  let visited = Array.make (N.num_nodes net) false in
  let order = ref [] in
  let stack = ref roots in
  let rec walk () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        if not visited.(id) then begin
          visited.(id) <- true;
          order := id :: !order;
          if not (N.is_pi net id) then
            Array.iter (fun fi -> stack := fi :: !stack) (N.fanins net id)
        end;
        walk ()
  in
  walk ();
  List.iter
    (fun id ->
      if N.is_pi net id then ignore (var_of ctx id)
      else
        encode_tt ctx (var_of ctx id) (N.func net id)
          (Array.map (var_of ctx) (N.fanins net id)))
    !order

type outcome = Proved of string | Refuted | Gave_up

(* Decide a query posed as "these clauses are unsatisfiable". An UNSAT
   answer only counts once its DRUP proof re-checks; the witness string
   records the trimmed, verified proof size. *)
let decide ~budget ctx =
  match
    Sat.Solver.solve_limited
      ~limits:(Sat.Solver.Limits.conflicts budget)
      ctx.solver
  with
  | Sat.Solver.LSat -> Refuted
  | Sat.Solver.LUnknown -> Gave_up
  | Sat.Solver.LUnsat -> (
      let formula = List.rev !(ctx.recorded) in
      let proof = Sat.Drup.trim formula (Sat.Solver.proof_events ctx.solver) in
      match Sat.Drup.check formula proof with
      | Sat.Drup.Valid ->
          Proved (Printf.sprintf "drup %d steps, checked" (List.length proof))
      | Sat.Drup.Invalid_step _ | Sat.Drup.Incomplete -> Gave_up)

(* XOR-difference clauses: y <-> (a <> b). *)
let encode_xor ctx y a b =
  addc ctx Sat.Literal.[ neg y; pos a; pos b ];
  addc ctx Sat.Literal.[ neg y; neg a; neg b ];
  addc ctx Sat.Literal.[ pos y; neg a; pos b ];
  addc ctx Sat.Literal.[ pos y; pos a; neg b ]

(* ------------------------------ run ------------------------------- *)

let run ?(seed = 1) ?(budget = 2000) ?(bdd_nodes = 50_000) ?(rounds = 4) net
    =
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
    Array.init (max 1 rounds) (fun _ ->
        Simulator.simulate_word net (Simulator.random_word rng net))
  in
  let rounds = Array.length node_words in
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
          let ctx = fresh_ctx net in
          encode_cones ctx net [ id ];
          (* UNSAT of [node = not b] proves the node is always [b]. *)
          addc ctx [ Sat.Literal.make ctx.vars.(id) b ];
          match decide ~budget ctx with
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
                let ctx = fresh_ctx net in
                encode_cones ctx net (Array.to_list fanins);
                let inputs = Array.map (var_of ctx) fanins in
                let y0 = Sat.Solver.new_var ctx.solver in
                let y1 = Sat.Solver.new_var ctx.solver in
                encode_tt ctx y0 c0 inputs;
                encode_tt ctx y1 c1 inputs;
                let d = Sat.Solver.new_var ctx.solver in
                encode_xor ctx d y0 y1;
                addc ctx [ Sat.Literal.pos d ];
                match decide ~budget ctx with
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
    let ctx = fresh_ctx net in
    encode_cones ctx net [ a; b ];
    let va = ctx.vars.(a) and vb = ctx.vars.(b) in
    (if complement then begin
       (* UNSAT of [a = b] proves a == not b. *)
       addc ctx Sat.Literal.[ neg va; pos vb ];
       addc ctx Sat.Literal.[ pos va; neg vb ]
     end
     else begin
       let d = Sat.Solver.new_var ctx.solver in
       encode_xor ctx d va vb;
       addc ctx [ Sat.Literal.pos d ]
     end);
    let report w =
      let mk = if severity = D.Warning then D.warn else D.info in
      add (mk ~loc code "%s (%s)" (describe ()) w)
    in
    match decide ~budget ctx with
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
            let ctx = fresh_ctx net in
            encode_cones ctx net (Array.to_list pos);
            if ctx.vars.(g) < 0 then
              (* In no PO cone after encoding: dangling, skip. *)
              ()
            else begin
              (* Copy B of the TFO over [g]'s negation. *)
              let vars_b = Array.make nn (-1) in
              vars_b.(g) <- Sat.Solver.new_var ctx.solver;
              addc ctx Sat.Literal.[ pos vars_b.(g); pos ctx.vars.(g) ];
              addc ctx Sat.Literal.[ neg vars_b.(g); neg ctx.vars.(g) ];
              let var_b id = if vars_b.(id) >= 0 then vars_b.(id) else ctx.vars.(id) in
              for id = g + 1 to nn - 1 do
                if tfo.(id) && ctx.vars.(id) >= 0 then begin
                  vars_b.(id) <- Sat.Solver.new_var ctx.solver;
                  encode_tt ctx vars_b.(id) (N.func net id)
                    (Array.map var_b (N.fanins net id))
                end
              done;
              (* Some affected PO must differ. *)
              let diff =
                Array.to_list pos
                |> List.filter (fun p -> vars_b.(p) >= 0)
                |> List.map (fun p ->
                       let x = Sat.Solver.new_var ctx.solver in
                       encode_xor ctx x ctx.vars.(p) vars_b.(p);
                       Sat.Literal.pos x)
              in
              match diff with
              | [] -> () (* flip reaches no PO variable: dangling *)
              | _ -> (
                  addc ctx diff;
                  match decide ~budget ctx with
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
