module N = Simgen_network.Network
module Level = Simgen_network.Level
module Eq = Simgen_sim.Eq_classes
module Simulator = Simgen_sim.Simulator
module Core = Simgen_core
module Solver = Simgen_sat.Solver
module Rng = Simgen_base.Rng
module Timer = Simgen_base.Timer
module Runtime_check = Simgen_base.Runtime_check
module Fault = Simgen_fault.Fault

type guided_stats = Sweep_options.guided_stats = {
  iterations : int;
  vectors : int;
  skipped : int;
  gen_conflicts : int;
  implications : int;
  decisions : int;
  gen_sat_calls : int;  (* SAT-based vector generation only *)
  guided_time : float;
}

type sat_stats = Sweep_options.sat_stats = {
  calls : int;
  proved : int;
  disproved : int;
  conflicts : int;
  propagations : int;
  watch_visits : int;
  clause_reads : int;
  restarts : int;
  deleted : int;
  sat_time : float;
}

let empty_guided =
  {
    iterations = 0;
    vectors = 0;
    skipped = 0;
    gen_conflicts = 0;
    implications = 0;
    decisions = 0;
    gen_sat_calls = 0;
    guided_time = 0.0;
  }

let empty_sat =
  {
    calls = 0;
    proved = 0;
    disproved = 0;
    conflicts = 0;
    propagations = 0;
    watch_visits = 0;
    clause_reads = 0;
    restarts = 0;
    deleted = 0;
    sat_time = 0.0;
  }

type degrade_stats = {
  unknowns : int;
  escalations : int;
  fresh_fallbacks : int;
  bdd_fallbacks : int;
  session_rebuilds : int;
  quarantined : (int * int) list;
}

let empty_degrade =
  {
    unknowns = 0;
    escalations = 0;
    fresh_fallbacks = 0;
    bdd_fallbacks = 0;
    session_rebuilds = 0;
    quarantined = [];
  }

module Certificate = Simgen_check.Certificate

type t = {
  net : N.t;
  rng : Rng.t;
  check : bool;  (* run invariant audits at refinement/merge boundaries *)
  certify : bool;  (* record a whole-sweep certificate *)
  audit : bool;  (* sampled solver-state sanitizer (Sweep_options.solver_audit) *)
  (* Whole-sweep certificate state: query records flushed out of the
     session (and appended by the certified fresh rung), the merge log
     (repr, node, proof_ref) in merge order — both newest first — and
     the index of the query that proved the most recent Equal verdict. *)
  mutable cert_queries : Certificate.query list;
  mutable cert_count : int;
  mutable merges : (int * int * int) list;
  mutable last_proof : int;
  eq : Eq.t;
  levels : int array;
  outgold : Core.Outgold.strategy;
  subst : int array;  (* proven-equivalence representative *)
  mutable session : Sat_session.t;
      (* the per-sweep incremental solver; shares [subst] and [rng].
         Mutable: a Violation mid-query tears the session down and a
         fresh one is rebuilt over the same (consistent) substitution. *)
  mutable history : int list;  (* costs, newest first *)
  (* Pairs (lo, hi) of representatives every ladder rung gave up on:
     skipped by candidate picking until a merge changes one side's
     representative. *)
  quarantine : (int * int, unit) Hashtbl.t;
  mutable d_stats : degrade_stats;
  (* Classes that repeatedly failed to yield a useful vector, keyed by
     their smallest member: generation is skipped for them until the
     class splits (changing its key). Mirrors how production sweepers
     stop hammering unsplittable classes. *)
  gen_failures : (int, int) Hashtbl.t;
  mutable g_stats : guided_stats;
  mutable s_stats : sat_stats;
  (* One engine/decision pair per configuration, created on demand so row
     and MFFC caches persist across guided rounds. *)
  engines : (Core.Config.t, Core.Engine.t * Core.Decision.t) Hashtbl.t;
}

let create (opts : Sweep_options.t) net =
  let rng = Rng.create opts.Sweep_options.seed in
  let subst = Array.init (N.num_nodes net) Fun.id in
  let check = Runtime_check.enabled () in
  let certify = opts.Sweep_options.certify in
  let audit = opts.Sweep_options.solver_audit in
  {
    net;
    rng;
    check;
    certify;
    audit;
    cert_queries = [];
    cert_count = 0;
    merges = [];
    last_proof = -1;
    eq = Eq.create net;
    levels = Level.compute net;
    outgold = opts.Sweep_options.outgold;
    subst;
    session = Sat_session.create ~certify ~audit ~subst ~rng net;
    history = [];
    quarantine = Hashtbl.create 8;
    d_stats = empty_degrade;
    gen_failures = Hashtbl.create 64;
    g_stats = empty_guided;
    s_stats = empty_sat;
    engines = Hashtbl.create 7;
  }

let session t = t.session

(* Pull the session's per-query records into the sweeper-level stream.
   Called after every session query so [cert_count - 1] always indexes
   the record of the query that just ran. *)
let flush_cert_queries t =
  if t.certify then
    List.iter
      (fun q ->
        t.cert_queries <- q :: t.cert_queries;
        t.cert_count <- t.cert_count + 1)
      (Sat_session.take_cert_queries t.session)

let network t = t.net
let classes t = t.eq
let cost t = Eq.cost t.eq

(* Invariant audits at refinement and merge boundaries. The flag is read
   once, at [create]; forcing it on keeps a sweeper created under checks
   auditing even if the flag is later turned off. *)
let audit t =
  if t.check then
    Runtime_check.with_enabled true (fun () ->
        Simgen_check.Audit.eq_partition t.eq t.net;
        Simgen_check.Audit.substitution t.subst)

let record_cost t =
  t.history <- cost t :: t.history;
  audit t

let cost_history t = List.rev t.history

let random_round t =
  let words = Simulator.random_word t.rng t.net in
  let node_words = Simulator.simulate_word t.net words in
  Eq.refine_word t.eq node_words;
  record_cost t

let apply_vector t vec =
  let words = Simulator.word_of_vector t.net vec in
  let node_words = Simulator.simulate_word t.net words in
  Eq.refine_word t.eq node_words;
  record_cost t

let batch_lanes = 64

(* Pack a list of vectors into 64-lane words so [n] vectors cost
   [ceil (n/64)] simulation passes instead of [n]; lane [i] of a pass
   holds the chunk's [i]-th vector. Unused lanes replay the chunk's first
   vector so they cannot split anything. Every pass refines the classes
   and records the cost. The guided rounds hand it their one batch. *)
let apply_vectors t vecs =
  let npis = N.num_pis t.net in
  let rec chunks = function
    | [] -> ()
    | first :: _ as vecs ->
        let words = Array.make npis 0L in
        let rec fill lane = function
          | rest when lane >= batch_lanes -> rest
          | [] ->
              Simulator.vector_word first lane words;
              fill (lane + 1) []
          | vec :: rest ->
              Simulator.vector_word vec lane words;
              fill (lane + 1) rest
        in
        let rest = fill 0 vecs in
        let node_words = Simulator.simulate_word t.net words in
        Eq.refine_word t.eq node_words;
        record_cost t;
        chunks rest
  in
  chunks vecs

let engine_for t config =
  match Hashtbl.find_opt t.engines config with
  | Some pair -> pair
  | None ->
      let engine = Core.Engine.create ~config t.net in
      let decision = Core.Decision.create ~rng:(Rng.split t.rng) engine in
      let pair = (engine, decision) in
      Hashtbl.replace t.engines config pair;
      pair

let sum_guided a d =
  {
    iterations = a.iterations + d.iterations;
    vectors = a.vectors + d.vectors;
    skipped = a.skipped + d.skipped;
    gen_conflicts = a.gen_conflicts + d.gen_conflicts;
    implications = a.implications + d.implications;
    decisions = a.decisions + d.decisions;
    gen_sat_calls = a.gen_sat_calls + d.gen_sat_calls;
    guided_time = a.guided_time +. d.guided_time;
  }

let add_guided t d = t.g_stats <- sum_guided t.g_stats d

let sum_sat a d =
  {
    calls = a.calls + d.calls;
    proved = a.proved + d.proved;
    disproved = a.disproved + d.disproved;
    conflicts = a.conflicts + d.conflicts;
    propagations = a.propagations + d.propagations;
    watch_visits = a.watch_visits + d.watch_visits;
    clause_reads = a.clause_reads + d.clause_reads;
    restarts = a.restarts + d.restarts;
    deleted = a.deleted + d.deleted;
    sat_time = a.sat_time +. d.sat_time;
  }

let class_outgold t cls =
  Core.Outgold.assign ~strategy:t.outgold ~rng:t.rng ~levels:t.levels cls

let max_class_failures = 5

let class_key = function [] -> -1 | id :: _ -> id

let given_up t cls =
  match Hashtbl.find_opt t.gen_failures (class_key cls) with
  | Some n -> n >= max_class_failures
  | None -> false

let note_failure t cls =
  let key = class_key cls in
  let n = Option.value ~default:0 (Hashtbl.find_opt t.gen_failures key) in
  Hashtbl.replace t.gen_failures key (n + 1)

(* One guided iteration builds one word-sized batch of patterns: classes
   are visited largest-first, each is handed to [generate], and every
   vector it returns claims a bit lane of the 64-bit simulation word.
   Classes whose generation fails are skipped, as per §3, and counted
   toward giving up on them. The batch is simulated in one word-parallel
   pass, mirroring the word-based simulation rounds of ABC-style
   sweeping. [generate outgold] answers the class's vector, if any, and
   the generator's own counters. The class's OUTgold is drawn from the
   sweeper's RNG before [generate] runs: test/golden/guided_costs.txt
   pins that draw order. *)
let guided_batch t generate =
  let t0 = Timer.now () in
  let ordered =
    List.sort
      (fun a b -> compare (List.length b) (List.length a))
      (Eq.classes t.eq)
  in
  let counts = ref empty_guided and skipped = ref 0 in
  let vectors = ref [] and nvec = ref 0 in
  let rec fill = function
    | [] -> ()
    | _ when !nvec >= batch_lanes -> ()
    | cls :: rest when given_up t cls ->
        incr skipped;
        fill rest
    | cls :: rest ->
        let outgold = class_outgold t cls in
        let vector, c = generate outgold in
        counts := sum_guided !counts c;
        (match vector with
         | Some vec ->
             vectors := vec :: !vectors;
             incr nvec
         | None ->
             note_failure t cls;
             incr skipped);
        fill rest
  in
  fill ordered;
  apply_vectors t !vectors;
  let d =
    {
      !counts with
      iterations = 1;
      vectors = !nvec;
      skipped = !skipped;
      guided_time = Timer.now () -. t0;
    }
  in
  add_guided t d;
  d

let guided_round_config t config =
  let engine, decision = engine_for t config in
  guided_batch t (fun outgold ->
      let report =
        Core.Vector_gen.generate_with engine decision ~rng:t.rng
          ~levels:t.levels outgold
      in
      (* The gen-giveup fault discards a useful vector: the class takes a
         generation failure exactly as if the generator came up empty,
         and the SAT sweep resolves it later. *)
      let useful =
        report.Core.Vector_gen.useful
        && not (Fault.enabled () && Fault.fire "gen-giveup")
      in
      ( (if useful then Some report.Core.Vector_gen.vector else None),
        {
          empty_guided with
          gen_conflicts = report.Core.Vector_gen.conflicts;
          implications = report.Core.Vector_gen.implications;
          decisions = report.Core.Vector_gen.decisions;
        } ))

let guided_round t strategy =
  guided_round_config t (Core.Strategy.config strategy)

(* Shared driver of both guided loops: [guided_iterations] rounds of
   [round], each reported to the observer, abandoned early when
   [should_stop] answers [true] between rounds. *)
let run_rounds (opts : Sweep_options.t) round =
  let acc = ref empty_guided in
  (try
     for i = 1 to opts.Sweep_options.guided_iterations do
       if opts.Sweep_options.should_stop () then raise Exit;
       let delta = round () in
       opts.Sweep_options.observe (Sweep_options.Guided_round { round = i; delta });
       acc := sum_guided !acc delta
     done
   with Exit -> ());
  !acc

(* The SAT-based vector generation baseline (Lee et al. / Amaru et al.,
   paper section 2.3): the same batches as [guided_round_config], but the
   vectors come from SAT models over the class cones, one solver call per
   visited class. *)
let one_sat_call = { empty_guided with gen_sat_calls = 1 }

let sat_guided_round t =
  guided_batch t (fun outgold ->
      (Sat_vectors.generate_pairwise_in t.session outgold, one_sat_call))

let run_sat_guided opts t = run_rounds opts (fun () -> sat_guided_round t)

(* One-distance refinement (Mishchenko et al., paper section 2.3): flip one
   bit of a counter-example per simulation lane. *)
let apply_one_distance t vec =
  let npis = N.num_pis t.net in
  let words = Array.make npis 0L in
  Simulator.vector_word vec 0 words;
  for lane = 1 to batch_lanes - 1 do
    let flipped = Array.copy vec in
    let bit = (lane - 1) mod npis in
    flipped.(bit) <- not flipped.(bit);
    Simulator.vector_word flipped lane words
  done;
  let node_words = Simulator.simulate_word t.net words in
  Eq.refine_word t.eq node_words;
  record_cost t

let run_guided (opts : Sweep_options.t) t =
  let config = Core.Strategy.config opts.Sweep_options.strategy in
  run_rounds opts (fun () -> guided_round_config t config)

let guided_stats t = t.g_stats

let representative t id = Sat_session.resolve t.subst id

(* ------------------- the degradation ladder ------------------- *)

let degrade_stats t = t.d_stats

let pair_key a b = (min a b, max a b)
let is_quarantined t a b = Hashtbl.mem t.quarantine (pair_key a b)

let quarantine_pair t a b =
  let key = pair_key a b in
  if not (Hashtbl.mem t.quarantine key) then begin
    Hashtbl.replace t.quarantine key ();
    t.d_stats <- { t.d_stats with quarantined = key :: t.d_stats.quarantined }
  end

let rebuild_session t =
  (* Salvage the completed query records before the old session (and its
     un-taken buffer) is dropped, then mark the discontinuity: the new
     session restarts the solver's variable space, so the checker must
     restart its replay engine too. *)
  flush_cert_queries t;
  if t.certify then begin
    t.cert_queries <- Certificate.Rebuild :: t.cert_queries;
    t.cert_count <- t.cert_count + 1
  end;
  t.session <-
    Sat_session.create ~certify:t.certify ~audit:t.audit
      ~subst:t.subst ~rng:t.rng t.net;
  t.d_stats <-
    { t.d_stats with session_rebuilds = t.d_stats.session_rebuilds + 1 }

(* One session query with Violation recovery: a corrupted session (a
   tripped audit, an injected corruption) is torn down and rebuilt from
   the substitution — the last consistent state, since only proven merges
   ever enter it — and the query retried once. A second Violation is
   genuine corruption outside the session and propagates. Solver-counter
   deltas accumulate into [acc] even when the query dies mid-way. *)
let session_query ?max_conflicts t a b acc =
  let attempt () =
    let before = Sat_session.solver_stats t.session in
    Fun.protect
      ~finally:(fun () ->
        acc :=
          Solver.add_stats !acc
            (Solver.diff_stats (Sat_session.solver_stats t.session) before))
      (fun () -> Sat_session.check_pair ?max_conflicts t.session a b)
  in
  let verdict =
    try attempt ()
    with Runtime_check.Violation _ ->
      rebuild_session t;
      attempt ()
  in
  (* Flush after every query so [cert_count - 1] is this query's record;
     an [Equal] leaves that index in [last_proof] for {!merge} to cite. *)
  flush_cert_queries t;
  (match verdict with
   | Sat_session.Equal -> if t.certify then t.last_proof <- t.cert_count - 1
   | Sat_session.Counterexample _ | Sat_session.Unknown -> ());
  verdict

(* The fresh solver, certified on a certifying sweeper: a validated
   Equal's proof record joins the whole-sweep certificate. *)
let fresh_query ?max_conflicts t a b acc =
  let r =
    Miter.check_pair_fresh ?max_conflicts ~certify:t.certify ~subst:t.subst
      ~rng:t.rng t.net a b
  in
  acc := Solver.add_stats !acc r.Miter.stats;
  if t.certify && not r.Miter.valid then
    failwith "Sweeper.verify_pair: certificate failed to validate";
  (match r.Miter.cert with
   | Some q ->
       t.cert_queries <- q :: t.cert_queries;
       t.cert_count <- t.cert_count + 1;
       t.last_proof <- t.cert_count - 1
   | None -> ());
  r.Miter.verdict

(* The rungs of the degradation ladder, walked in list order by
   {!verify_pair}. [Session k] and [Fresh k] run at the base conflict
   budget times 4^k. *)
type rung = Cut_check of Fun_cache.t | Session of int | Fresh of int | Bdd

(* Session steps past the first, each at 4x the previous budget: the
   solver keeps its learned clauses, so each retry resumes paid-for work. *)
let escalations = 3
let session_steps = List.init (escalations + 1) (fun k -> Session k)

(* The BDD rung's node quota; past it the pair is quarantined. *)
let bdd_quota = 10_000

(* The rungs of one query: the cut-local check when a [fun_cache] is set,
   the session steps, a fresh solver at the next budget (a session
   poisoned by its own clause database cannot poison it), then the BDD
   backend. On the fresh route ([incremental = false]) there is no
   session to escalate, and the fresh solver is the first SAT rung, at
   step 0. Under certification the BDD rung is dropped: its verdict
   carries no clausal proof, so the pair is quarantined rather than
   merged on it. *)
let ladder ~cut ~session ~certify =
  (match cut with Some fc -> [ Cut_check fc ] | None -> [])
  @ (if session then session_steps @ [ Fresh (escalations + 1) ]
     else [ Fresh 0 ])
  @ if certify then [] else [ Bdd ]

(* Ladder telemetry. Entering session step k >= 1 is an escalation, the
   fresh solver after a session step a fresh fallback, the BDD rung a
   BDD fallback; each [Unknown] from a SAT rung is an unknown. *)
let enter t rung =
  let d = t.d_stats in
  match rung with
  | Session k when k > 0 ->
      t.d_stats <- { d with escalations = d.escalations + 1 }
  | Fresh k when k > 0 ->
      t.d_stats <- { d with fresh_fallbacks = d.fresh_fallbacks + 1 }
  | Bdd -> t.d_stats <- { d with bdd_fallbacks = d.bdd_fallbacks + 1 }
  | Cut_check _ | Session _ | Fresh _ -> ()

let gave_up t = function
  | Session _ | Fresh _ ->
      t.d_stats <- { t.d_stats with unknowns = t.d_stats.unknowns + 1 }
  | Cut_check _ | Bdd -> ()

(* Verify one candidate pair by walking its {!ladder} until a rung
   answers other than [Unknown]. Past the last rung the pair is
   quarantined: recorded, excluded from future picking, and never
   merged. With [max_conflicts = None] the budgets are unlimited, so only
   an injected fault (or a Violation) can push the walk past its first
   SAT rung. *)
let verify_pair (opts : Sweep_options.t) t a b =
  let a = representative t a and b = representative t b in
  let acc = ref Solver.zero_stats in
  if a = b then (Sat_session.Equal, !acc)
  else begin
    let budget k =
      match opts.Sweep_options.max_conflicts with
      | None -> None
      | Some b -> Some (b * (1 lsl (2 * k)))
    in
    let ask = function
      | Cut_check fc ->
          (* Equal is proven over a shared cut (and withheld under
             certification, where the merge must cite a DRUP proof); a
             counterexample comes from an exact cut. *)
          Fun_cache.consult fc ~serve_equal:(not t.certify) ~rng:t.rng
            ~subst:t.subst t.net a b
      | Session k -> session_query ?max_conflicts:(budget k) t a b acc
      | Fresh k -> fresh_query ?max_conflicts:(budget k) t a b acc
      | Bdd ->
          Bdd_backend.check_pair ~max_nodes:bdd_quota t.net a b
    in
    let rec walk = function
      | [] ->
          quarantine_pair t a b;
          Sat_session.Unknown
      | rung :: rest -> (
          enter t rung;
          match ask rung with
          | Sat_session.Unknown ->
              gave_up t rung;
              walk rest
          | (Sat_session.Equal | Sat_session.Counterexample _) as v -> v)
    in
    let verdict =
      walk
        (ladder ~cut:opts.Sweep_options.fun_cache
           ~session:opts.Sweep_options.incremental ~certify:t.certify)
    in
    (verdict, !acc)
  end

(* Record a proven merge: resolve both sides to their representatives,
   redirect the larger id to the smaller, and — under certification —
   log [(repr, node, proof_ref)] where [proof_ref] indexes the query
   record that proved exactly this resolved pair ({!verify_pair} leaves
   it in [last_proof]). A merge recorded with no proof on file ([-1])
   is rejected by the certificate checker, which is the point. *)
let merge t a b =
  let a = representative t a and b = representative t b in
  (if a <> b then begin
     let lo = min a b and hi = max a b in
     t.subst.(hi) <- lo;
     if t.certify then t.merges <- (lo, hi, t.last_proof) :: t.merges
   end);
  t.last_proof <- -1

(* Assemble the whole-sweep certificate from the recorded streams; the
   independent checker is {!Simgen_check.Certificate.check}. *)
let certificate t =
  flush_cert_queries t;
  {
    Certificate.num_nodes = N.num_nodes t.net;
    queries = Array.of_list (List.rev t.cert_queries);
    merges =
      List.rev_map
        (fun (repr, node, proof) -> { Certificate.repr; node; proof })
        t.merges;
  }

(* SAT sweeping: resolve every remaining candidate pair.

   Classes are processed through a worklist instead of rescanning the full
   class list after every SAT call (which is O(classes^2) on large nets).
   A class key (its smallest member) that was once verified resolved stays
   resolved: refinement only ever splits classes, so any later class under
   the same key is a subset of the verified member set, and representatives
   only merge, so a single-representative set never regains a second
   representative. Each class is therefore revisited only after it changes;
   classes created under new keys by counter-example refinements are
   collected by a rescan when the worklist drains. *)
let sat_sweep (opts : Sweep_options.t) t =
  let max_calls = opts.Sweep_options.max_sat_calls in
  let one_distance = opts.Sweep_options.one_distance in
  let should_stop = opts.Sweep_options.should_stop in
  let calls = ref 0 and proved = ref 0 and disproved = ref 0 in
  let solver = ref Solver.zero_stats in
  let t0 = Timer.now () in
  (* One candidate query through {!verify_pair}: the configured route
     (incremental session by default, fresh solver or certified DRUP
     otherwise) wrapped in the degradation ladder. Solver-counter deltas
     accumulate on every route. *)
  let check a b =
    let verdict, st = verify_pair opts t a b in
    solver := Solver.add_stats !solver st;
    verdict
  in
  let budget_left () =
    (match max_calls with None -> true | Some m -> !calls < m)
    && not (should_stop ())
  in
  let resolved = Hashtbl.create 64 in
  let queued = Hashtbl.create 64 in
  let pending = Queue.create () in
  let enqueue cls =
    match cls with
    | [] -> ()
    | member :: _ ->
        if not (Hashtbl.mem resolved member || Hashtbl.mem queued member)
        then begin
          Hashtbl.replace queued member ();
          Queue.add member pending
        end
  in
  List.iter enqueue (Eq.classes t.eq);
  let rec loop () =
    if budget_left () then
      match Queue.take_opt pending with
      | None ->
          (* Drain-time rescan: counter-example refinements can split
             classes into parts keyed by members this worklist has never
             seen. *)
          let dirty =
            List.filter
              (fun cls -> not (Hashtbl.mem resolved (class_key cls)))
              (Eq.classes t.eq)
          in
          if dirty <> [] then begin
            List.iter enqueue dirty;
            loop ()
          end
      | Some member ->
          Hashtbl.remove queued member;
          (* The queued key may be stale: work on the *current* class of
             that member; parts split away since the push are picked up by
             the drain-time rescan. *)
          let cls = Eq.class_of t.eq member in
          let reps = List.sort_uniq compare (List.map (representative t) cls) in
          (* First representative pair not already quarantined; a class
             whose every pair is quarantined counts as resolved — nothing
             in the ladder is left to try until a merge moves one side. *)
          let rec pick = function
            | a :: rest -> (
                match
                  List.find_opt (fun b -> not (is_quarantined t a b)) rest
                with
                | Some b -> Some (a, b)
                | None -> pick rest)
            | [] -> None
          in
          (match (reps, pick reps) with
           | _ :: _ :: _, Some (a, b) ->
               incr calls;
               (match check a b with
                | Sat_session.Equal ->
                    incr proved;
                    (* Merge into the smaller id so representatives are
                       stable; the class stays on the worklist until a
                       single representative remains. *)
                    merge t a b;
                    audit t;
                    enqueue cls
                | Sat_session.Counterexample vec ->
                    incr disproved;
                    opts.Sweep_options.observe (Sweep_options.Counterexample vec);
                    if one_distance then apply_one_distance t vec
                    else apply_vector t vec;
                    (* Continue with the split-off classes of both nodes;
                       the counter-example separated them, so these are
                       distinct (possibly singleton) classes now. *)
                    enqueue (Eq.class_of t.eq a);
                    enqueue (Eq.class_of t.eq b)
                | Sat_session.Unknown ->
                    (* Every rung gave up: the pair is quarantined (by
                       verify_pair), never merged. Revisit the class for
                       its other pairs. *)
                    enqueue cls)
           | _ ->
               (* Single representative (or singleton), or every pair
                  quarantined: resolved for good. *)
               (match cls with
                | k :: _ -> Hashtbl.replace resolved k ()
                | [] -> Hashtbl.replace resolved member ()));
          loop ()
  in
  loop ();
  (* Under audits, check the session's whole solver state once, watch
     lists included: the per-query audits only sample it. *)
  if t.check then Sat_session.audit t.session;
  let st = !solver in
  let d =
    {
      calls = !calls;
      proved = !proved;
      disproved = !disproved;
      conflicts = st.Solver.conflicts;
      propagations = st.Solver.propagations;
      watch_visits = st.Solver.watch_visits;
      clause_reads = st.Solver.clause_reads;
      restarts = st.Solver.restarts;
      deleted = st.Solver.deleted + st.Solver.removed;
      sat_time = Timer.now () -. t0;
    }
  in
  t.s_stats <- sum_sat t.s_stats d;
  opts.Sweep_options.observe (Sweep_options.Sat_sweep d);
  d

let sat_stats t = t.s_stats

let substitution t = t.subst

let gen_failure_counts t =
  List.sort compare
    (Hashtbl.fold (fun key n acc -> (key, n) :: acc) t.gen_failures [])
