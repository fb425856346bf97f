module N = Simgen_network.Network
module Sat = Simgen_sat
module Rng = Simgen_base.Rng
module Runtime_check = Simgen_base.Runtime_check
module Fault = Simgen_fault.Fault

type verdict = Equal | Counterexample of bool array | Unknown

type stats = {
  queries : int;
  proved : int;
  disproved : int;
  unknown : int;
  vector_calls : int;
  encoded : int;
  reencoded : int;
  retired : int;
  live_clauses : int;
  live_learnts : int;
  retired_clauses : int;
  rebuilds : int;
}

(* Shared sentinel meaning "no gate clauses emitted for this node yet".
   Physical equality distinguishes it from a genuinely empty fanin array
   only in principle — gates always have fanins, so structural comparison
   is enough. *)
let no_fanins : int array = [||]

module Certificate = Simgen_check.Certificate

type t = {
  net : N.t;
  mutable solver : Sat.Solver.t;
  subst : int array;  (* the proven-equivalence substitution, shared *)
  rng : Rng.t;
  certify : bool;
  audit : bool;  (* sampled solver-state audits (R007..R013) armed *)
  mutable pending_clauses : Sat.Literal.t list list;
      (* problem clauses (cone encodings) added since the last recorded
         query, newest first; guard/retirement/tie clauses are excluded —
         the certificate checker reconstructs those itself *)
  mutable cert_queries : Certificate.query list;  (* newest first, untaken *)
  mutable proof_mark : int;  (* solver proof events already sliced *)
  vars : int array;  (* node -> current solver variable, -1 if unencoded *)
  enc_fanins : int array array;
      (* node -> variables of its substituted fanins when its clauses were
         emitted; the staleness check compares against the current ones *)
  visit : int array;  (* DFS stamp per node (avoids a per-query array) *)
  mutable stamp : int;
  mutable stack : int array;
      (* [encode_roots]'s DFS stack: a node [id] to visit, or [lnot id]
         once its fanins are done *)
  mutable clauses_live : int;
      (* stored problem clauses belonging to the current (non-stale)
         encoding — the denominator of the clause-growth rebuild trigger *)
  mutable base_stats : Sat.Solver.stats;
      (* counters of solvers discarded by [rebuild]; [solver_stats] adds
         the live solver's on top so deltas stay monotone across rebuilds *)
  mutable queries : int;
  mutable proved : int;
  mutable disproved : int;
  mutable unknown : int;
  mutable vector_calls : int;
  mutable encoded : int;
  mutable reencoded : int;
  mutable retired : int;
  mutable retired_clauses : int;  (* clauses physically deleted by GC *)
  mutable rebuilds : int;
}

(* The clause-growth rebuild trigger: the database must exceed
   [gc_min_live] clauses (below it the whole database fits in cache and a
   rebuild costs more than it saves) and [gc_ratio] times the live
   encoding. *)
let gc_min_live = 2000
let gc_ratio = 3.0

(* Sampled solver-state audit interval: cheap enough for benches, dense
   enough that a corrupted invariant cannot survive a query unnoticed. *)
let audit_every = 16

let create ?(certify = false) ?(audit = false) ?subst ?rng net =
  let n = N.num_nodes net in
  let audit = audit || Runtime_check.enabled () in
  let solver = Sat.Solver.create () in
  if certify then Sat.Solver.enable_proof solver;
  if audit then Sat.Solver.set_audit solver ~every:audit_every;
  {
    net;
    solver;
    audit;
    subst = (match subst with Some s -> s | None -> Array.init n Fun.id);
    rng = (match rng with Some r -> r | None -> Rng.create 0xCE8);
    certify;
    pending_clauses = [];
    cert_queries = [];
    proof_mark = 0;
    vars = Array.make n (-1);
    enc_fanins = Array.make n no_fanins;
    visit = Array.make n 0;
    stamp = 0;
    stack = Array.make 64 0;
    clauses_live = 0;
    base_stats = Sat.Solver.zero_stats;
    queries = 0;
    proved = 0;
    disproved = 0;
    unknown = 0;
    vector_calls = 0;
    encoded = 0;
    reencoded = 0;
    retired = 0;
    retired_clauses = 0;
    rebuilds = 0;
  }

let take_cert_queries t =
  let qs = List.rev t.cert_queries in
  t.cert_queries <- [];
  qs

(* Problem clauses flow through here so a certifying session can record
   them; the guard/retirement/tie clauses in [check_pair] bypass it on
   purpose (the checker derives those from the query record). The stored
   clause count delta keeps [clauses_live] exact even when the solver's
   preprocessing drops a clause (unit, tautology, already satisfied). *)
let add_problem_clause ?group t clause =
  if t.certify then t.pending_clauses <- clause :: t.pending_clauses;
  let before = Sat.Solver.num_clauses t.solver in
  Sat.Solver.add_clause ?group t.solver clause;
  t.clauses_live <- t.clauses_live + (Sat.Solver.num_clauses t.solver - before)

let resolve s id =
  let rec follow id = if s.(id) = id then id else follow s.(id) in
  let root = follow id in
  (* Path compression. *)
  let rec compress id =
    if s.(id) <> root then begin
      let next = s.(id) in
      s.(id) <- root;
      compress next
    end
  in
  compress id;
  root

(* Give every node of the (substituted) fanin cones of [roots] a live,
   up-to-date encoding. A node is (re-)encoded when it has no variable
   yet, or when the variables of its substituted fanins changed since its
   clauses were emitted — a merge redirected a fanin to its
   representative, or the fanin itself was re-encoded. The stale
   definition is physically retracted (its clause group is removed and
   the watch lists stop carrying it); it was a sound consequence of the
   network plus the proven merges, so learned clauses over the old
   variables remain valid. The explicit stack keeps deep cones off the
   OCaml call stack.

   Returns the variables of every cone node visited — the decision focus
   for the query about to run: the cone encodings are conservative
   extensions, so once those variables reach a conflict-free fixpoint the
   rest of the accumulated network is satisfiable by construction and the
   solver need not assign it. *)
(* Whether gate [id] needs (re-)encoding: it has no variable yet, or the
   variable of some substituted fanin differs from the one its clauses
   were emitted over. *)
let stale t id fanins =
  t.vars.(id) < 0
  ||
  let enc = t.enc_fanins.(id) in
  Array.length enc <> Array.length fanins
  ||
  let rec differs i =
    i < Array.length fanins
    && (enc.(i) <> t.vars.(resolve t.subst fanins.(i)) || differs (i + 1))
  in
  differs 0

let encode_roots t roots =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let cone = ref [] in
  let top = ref 0 in
  let push x =
    if !top = Array.length t.stack then begin
      let grown = Array.make (2 * !top) 0 in
      Array.blit t.stack 0 grown 0 !top;
      t.stack <- grown
    end;
    t.stack.(!top) <- x;
    incr top
  in
  List.iter push roots;
  while !top > 0 do
    decr top;
    let entry = t.stack.(!top) in
    if entry < 0 then begin
      (* Post-order: the substituted fanins are final; refresh if stale. *)
      let id = lnot entry in
      let fanins = N.fanins t.net id in
      if stale t id fanins then begin
        if t.vars.(id) < 0 then t.encoded <- t.encoded + 1
        else begin
          t.reencoded <- t.reencoded + 1;
          (* Physically retract the stale definition. The retraction
             records no proof event: the certificate checker treats
             recorded problem clauses as immutable, and keeping a deleted
             clause only strengthens its propagation. *)
          let n = Sat.Solver.remove_group t.solver t.vars.(id) in
          t.clauses_live <- t.clauses_live - n;
          t.retired_clauses <- t.retired_clauses + n
        end;
        let fvars = Array.map (fun f -> t.vars.(resolve t.subst f)) fanins in
        let y = Sat.Solver.new_var t.solver in
        t.vars.(id) <- y;
        t.enc_fanins.(id) <- fvars;
        (* Grouped under the output variable so a later re-encode can
           physically retract the definition. *)
        Sat.Tseitin.gate (add_problem_clause ~group:y t) (N.func t.net id) y
          (fun i -> fvars.(i))
      end;
      cone := t.vars.(id) :: !cone
    end
    else if t.visit.(entry) < stamp then begin
      let id = entry in
      t.visit.(id) <- stamp;
      if N.is_pi t.net id then begin
        if t.vars.(id) < 0 then begin
          t.vars.(id) <- Sat.Solver.new_var t.solver;
          t.encoded <- t.encoded + 1
        end;
        cone := t.vars.(id) :: !cone
      end
      else begin
        push (lnot id);
        Array.iter (fun fi -> push (resolve t.subst fi)) (N.fanins t.net id)
      end
    end
  done;
  (* R004: right after encode_roots, every visited gate must be encoded
     over the variables of its currently-substituted fanins — the lazy
     re-encode-on-merge contract. Stale encodings are legal *between*
     calls (a merge happened since), never after one. *)
  if Runtime_check.enabled () then
    Array.iteri
      (fun id v ->
        if v = stamp && not (N.is_pi t.net id) then begin
          if t.vars.(id) < 0 then
            Runtime_check.failf
              "R004: node %d visited by encode_roots but left unencoded" id;
          let fvars =
            Array.map (fun f -> t.vars.(resolve t.subst f)) (N.fanins t.net id)
          in
          if t.enc_fanins.(id) <> fvars then
            Runtime_check.failf
              "R004: node %d encoding stale immediately after encode_roots \
               (a fanin representative moved without a re-encode)"
              id
        end)
      t.visit;
  !cone

(* Read a full PI vector off the model; PIs the session never encoded are
   outside every queried cone and take random values so the vector can be
   simulated network-wide. *)
let extract t = Sat.Tseitin.pi_values ~rng:t.rng t.solver t.net t.vars

(* Throw the accumulated solver away and start over on the same shared
   substitution: the next queries re-encode only the cones they touch,
   over the current representatives. Triggered when the clause database
   outgrows the live encoding past [gc_ratio] — the growth is then
   dominated by learned clauses and stale variable space that no
   per-clause GC can reclaim. A certifying session records the
   discontinuity so the checker resets its clause database too. *)
let rebuild t =
  if t.certify then t.cert_queries <- Certificate.Rebuild :: t.cert_queries;
  t.base_stats <- Sat.Solver.add_stats t.base_stats (Sat.Solver.stats t.solver);
  let solver = Sat.Solver.create () in
  if t.certify then Sat.Solver.enable_proof solver;
  if t.audit then Sat.Solver.set_audit solver ~every:audit_every;
  t.solver <- solver;
  Array.fill t.vars 0 (Array.length t.vars) (-1);
  Array.fill t.enc_fanins 0 (Array.length t.enc_fanins) no_fanins;
  t.pending_clauses <- [];
  t.proof_mark <- 0;
  t.clauses_live <- 0;
  t.rebuilds <- t.rebuilds + 1

let check_pair ?max_conflicts t a b =
  (* R002/R003: the shared substitution must stay monotone and in range —
     the sweeper only ever merges upward ids into lower ones. *)
  Simgen_check.Audit.substitution t.subst;
  let a = resolve t.subst a and b = resolve t.subst b in
  if a = b then Equal
  else begin
    t.queries <- t.queries + 1;
    if Fault.enabled () && Fault.fire "session-corrupt" then begin
      (* Scramble one encoding record so the session would trust stale
         clauses, then fail exactly the way the R004 audit does — the
         sweeper's recovery path must not depend on audits being on. *)
      if t.vars.(a) >= 0 then t.enc_fanins.(a) <- no_fanins;
      Runtime_check.failf
        "F-session-corrupt: injected re-encode corruption at node %d" a
    end;
    let cone = encode_roots t [ a; b ] in
    let solver = t.solver in
    (* Branch only inside the two cones: the rest of the accumulated
       network is definitional and need not be assigned, which is what
       keeps a shared-database query as cheap as a fresh-solver one. *)
    Sat.Solver.focus_decisions solver cone;
    let va = t.vars.(a) and vb = t.vars.(b) in
    let act = Sat.Solver.new_var solver in
    let nact = Sat.Literal.neg act in
    (* The XOR-difference miter, guarded by the activation literal: under
       the assumption [act] the two nodes must disagree. The guards are
       grouped under [act] so retirement can delete them physically. *)
    Sat.Solver.add_clause ~group:act solver
      [ nact; Sat.Literal.pos va; Sat.Literal.pos vb ];
    Sat.Solver.add_clause ~group:act solver
      [ nact; Sat.Literal.neg va; Sat.Literal.neg vb ];
    (* The sat-budget fault zeroes the budget for this one call: the
       Unknown comes out of the real limit machinery, not a shortcut. *)
    let max_conflicts =
      if Fault.enabled () && Fault.fire "sat-budget" then Some 0 else max_conflicts
    in
    let limits =
      match max_conflicts with
      | None -> Sat.Solver.Limits.unlimited
      | Some n -> Sat.Solver.Limits.conflicts n
    in
    let verdict =
      match
        Sat.Solver.solve_limited ~limits
          ~assumptions:[ Sat.Literal.pos act ] solver
      with
      | Sat.Solver.LUnsat ->
          (* The refutation must hang off the activation literal: the cone
             encodings alone are satisfiable by construction, so an
             unconditional Unsat means the encoding is broken. *)
          assert (Sat.Solver.failed_assumptions solver <> []);
          t.proved <- t.proved + 1;
          Equal
      | Sat.Solver.LSat ->
          t.disproved <- t.disproved + 1;
          Counterexample (extract t)
      | Sat.Solver.LUnknown ->
          t.unknown <- t.unknown + 1;
          Unknown
    in
    (* Retire the miter either way — the verdict is final. The unit
       satisfies the guard clauses and silences every learned clause that
       mentions [act]; the guards are then deleted outright (the unit
       stays — learned clauses carrying the positive [act] literal are
       only sound under it). *)
    Sat.Solver.add_clause solver [ nact ];
    t.retired <- t.retired + 1;
    t.retired_clauses <-
      t.retired_clauses + Sat.Solver.remove_group solver act;
    (match verdict with
     | Equal ->
         (* Proven equivalent: tie the variables so cones through either
            node share each other's learned clauses from now on. *)
         Sat.Solver.add_clause solver
           [ Sat.Literal.neg va; Sat.Literal.pos vb ];
         Sat.Solver.add_clause solver
           [ Sat.Literal.pos va; Sat.Literal.neg vb ];
         (* The caller merges the higher node into the lower one (the
            R002 monotone-substitution contract), so the loser's gate
            definition is dead: no future cone resolves to it. Retract
            it — the tie keeps every learned clause over its variable
            sound, and without the definition a search pass no longer
            cascades assignments into the retired variable space (on
            stacked suites each class would otherwise drag one dead cone
            per level through every propagation). Clearing the encoding
            record keeps the session honest when a caller declines the
            merge: the next visit re-encodes from scratch instead of
            trusting clauses that are no longer there. *)
         let loser = max a b in
         if not (N.is_pi t.net loser) then begin
           let n = Sat.Solver.remove_group solver t.vars.(loser) in
           t.clauses_live <- t.clauses_live - n;
           t.retired_clauses <- t.retired_clauses + n;
           t.vars.(loser) <- -1;
           t.enc_fanins.(loser) <- no_fanins
         end
     | Counterexample _ | Unknown -> ());
    (* Under certification, cut the proof-event stream here: everything
       since the previous cut (vector-query learns included — later
       queries may reuse them) plus the problem clauses pending become
       this query's certificate record. The cut happens before the R005
       probe below: the probe's solve entry may garbage-collect learned
       clauses that only the *next* slice may delete — the checker adds
       this query's retirement unit after its goal check, and only then
       are clauses satisfied by it disposable. *)
    if t.certify then begin
      let events = Sat.Solver.proof_events_from solver t.proof_mark in
      t.proof_mark <- Sat.Solver.proof_event_count solver;
      let clauses = List.rev t.pending_clauses in
      t.pending_clauses <- [];
      t.cert_queries <-
        Certificate.Session
          { a; b; act; va; vb; equal = (verdict = Equal); clauses; events }
        :: t.cert_queries
    end;
    (* R005: retirement must actually kill the miter — assuming the
       activation literal again must now be a unit conflict. *)
    if Runtime_check.enabled () then begin
      match Sat.Solver.solve ~assumptions:[ Sat.Literal.pos act ] solver with
      | Sat.Solver.Unsat -> ()
      | Sat.Solver.Sat ->
          Runtime_check.failf
            "R005: retired activation literal x%d is still satisfiable" act
    end;
    (* Clause-growth trigger: when the database dwarfs the live encoding
       despite per-clause GC, re-encode from scratch. *)
    let live =
      Sat.Solver.num_clauses t.solver + Sat.Solver.num_learnts t.solver
    in
    if
      live > gc_min_live
      && float_of_int live > gc_ratio *. float_of_int (max 1 t.clauses_live)
    then rebuild t;
    verdict
  end

let solve_targets t outgold =
  match outgold with
  | [] -> None
  | _ ->
      t.vector_calls <- t.vector_calls + 1;
      let targets =
        List.map (fun (id, gold) -> (resolve t.subst id, gold)) outgold
      in
      let cone = encode_roots t (List.map fst targets) in
      Sat.Solver.focus_decisions t.solver cone;
      let assumptions =
        List.map
          (fun (id, gold) -> Sat.Literal.make t.vars.(id) (not gold))
          targets
      in
      (match Sat.Solver.solve ~assumptions t.solver with
       | Sat.Solver.Sat -> Some (extract t)
       | Sat.Solver.Unsat -> None)

let stats t =
  let st = Sat.Solver.stats t.solver in
  {
    queries = t.queries;
    proved = t.proved;
    disproved = t.disproved;
    unknown = t.unknown;
    vector_calls = t.vector_calls;
    encoded = t.encoded;
    reencoded = t.reencoded;
    retired = t.retired;
    live_clauses = st.Sat.Solver.live_clauses;
    live_learnts = st.Sat.Solver.live_learnts;
    retired_clauses = t.retired_clauses;
    rebuilds = t.rebuilds;
  }

let audit t = Sat.Solver.audit t.solver

let solver_stats t = Sat.Solver.add_stats t.base_stats (Sat.Solver.stats t.solver)
