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

type guided_stats = {
  iterations : int;
  vectors : int;
  skipped : int;
  gen_conflicts : int;
  implications : int;
  decisions : int;
  gen_sat_calls : int;  (* SAT-based vector generation only *)
  guided_time : float;
}

type sat_stats = {
  calls : int;
  proved : int;
  disproved : int;
  conflicts : int;
  propagations : int;
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
  gc : bool;  (* session clause garbage-collection (Sweep_options.session_gc) *)
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

let create ?check (opts : Sweep_options.t) net =
  let rng = Rng.create opts.Sweep_options.seed in
  let subst = Array.init (N.num_nodes net) Fun.id in
  let check =
    match check with Some b -> b | None -> Runtime_check.enabled ()
  in
  let certify = opts.Sweep_options.certify in
  let gc = opts.Sweep_options.session_gc in
  let audit = opts.Sweep_options.solver_audit in
  {
    net;
    rng;
    check;
    certify;
    gc;
    audit;
    cert_queries = [];
    cert_count = 0;
    merges = [];
    last_proof = -1;
    eq = Eq.create net;
    levels = Level.compute net;
    outgold = opts.Sweep_options.outgold;
    subst;
    session = Sat_session.create ~certify ~gc ~audit ~subst ~rng net;
    history = [];
    quarantine = Hashtbl.create 8;
    d_stats = empty_degrade;
    gen_failures = Hashtbl.create 64;
    g_stats = empty_guided;
    s_stats = empty_sat;
    engines = Hashtbl.create 7;
  }

let session t = t.session
let certifying t = t.certify

(* Pull the session's per-query records into the sweeper-level stream.
   Called after every session query so [cert_count - 1] always indexes
   the record of the query that just ran. *)
let flush_cert_queries t =
  if Sat_session.certifying t.session then
    List.iter
      (fun q ->
        t.cert_queries <- q :: t.cert_queries;
        t.cert_count <- t.cert_count + 1)
      (Sat_session.take_cert_queries t.session)

let network t = t.net
let classes t = t.eq
let cost t = Eq.cost t.eq

(* Invariant audits at refinement and merge boundaries. Forcing the flag
   on makes an explicit [~check:true] work even when SIMGEN_CHECK is
   unset; forcing it off makes [~check:false] cheap no matter the
   environment. *)
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

(* Pack a list of vectors into 64-lane words so [n] vectors cost
   [ceil (n/64)] simulation passes instead of [n]. Unused lanes replay the
   chunk's first vector so they cannot split anything. *)
let apply_vectors t vecs =
  let npis = N.num_pis t.net in
  let rec chunks = function
    | [] -> ()
    | first :: _ as vecs ->
        let words = Array.make npis 0L in
        let rec fill lane = function
          | rest when lane >= 64 -> rest
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
   are visited largest-first, each is handed to the pattern generator, and
   every useful vector (one realizing opposite OUTgold values on at least
   a pair of targets) claims a bit lane of the 64-bit simulation word.
   Classes whose generation fails are skipped, as per §3. The batch is
   simulated in one word-parallel pass, mirroring the word-based
   simulation rounds of ABC-style sweeping. *)
let batch_lanes = 64

let guided_round_config t config =
  let engine, decision = engine_for t config in
  let t0 = Timer.now () in
  let ordered =
    List.sort
      (fun a b -> compare (List.length b) (List.length a))
      (Eq.classes t.eq)
  in
  let skipped = ref 0 in
  let conflicts = ref 0 and implications = ref 0 and decisions_n = ref 0 in
  let vectors = ref [] in
  let nvec = ref 0 in
  let rec fill = function
    | [] -> ()
    | _ when !nvec >= batch_lanes -> ()
    | cls :: rest when given_up t cls ->
        incr skipped;
        fill rest
    | cls :: rest ->
        let outgold = class_outgold t cls in
        let report =
          Core.Vector_gen.generate_with engine decision ~rng:t.rng
            ~levels:t.levels outgold
        in
        conflicts := !conflicts + report.Core.Vector_gen.conflicts;
        implications := !implications + report.Core.Vector_gen.implications;
        decisions_n := !decisions_n + report.Core.Vector_gen.decisions;
        (* The gen-giveup fault discards a useful vector: the class takes a
           generation failure exactly as if the generator came up empty,
           and the SAT sweep resolves it later. *)
        let useful =
          report.Core.Vector_gen.useful
          && not (Fault.enabled () && Fault.fire "gen-giveup")
        in
        if useful then begin
          vectors := report.Core.Vector_gen.vector :: !vectors;
          incr nvec
        end
        else begin
          note_failure t cls;
          incr skipped
        end;
        fill rest
  in
  fill ordered;
  (match !vectors with
   | [] -> ()
   | vecs ->
       let words = Array.make (N.num_pis t.net) 0L in
       List.iteri (fun lane vec -> Simulator.vector_word vec lane words) vecs;
       (* Unused lanes replay lane 0 so they cannot split anything. *)
       (match vecs with
        | first :: _ ->
            for lane = List.length vecs to batch_lanes - 1 do
              Simulator.vector_word first lane words
            done
        | [] -> ());
       let node_words = Simulator.simulate_word t.net words in
       Eq.refine_word t.eq node_words;
       record_cost t);
  let d =
    {
      iterations = 1;
      vectors = !nvec;
      skipped = !skipped;
      gen_conflicts = !conflicts;
      implications = !implications;
      decisions = !decisions_n;
      gen_sat_calls = 0;
      guided_time = Timer.now () -. t0;
    }
  in
  add_guided t d;
  d

let guided_round t strategy =
  guided_round_config t (Core.Strategy.config strategy)

(* Shared driver of both guided loops: [iterations] rounds of [round],
   abandoned early when [should_stop] answers [true] between rounds. *)
let run_rounds ~should_stop ~iterations round =
  let acc = ref empty_guided in
  (try
     for _ = 1 to iterations do
       if should_stop () then raise Exit;
       acc := sum_guided !acc (round ())
     done
   with Exit -> ());
  !acc

(* The SAT-based vector generation baseline (Lee et al. / Amaru et al.,
   paper section 2.3): identical batching to [guided_round_config], but the
   vectors come from SAT models over the class cones. *)
let sat_guided_round t =
  let t0 = Timer.now () in
  let ordered =
    List.sort
      (fun a b -> compare (List.length b) (List.length a))
      (Eq.classes t.eq)
  in
  let skipped = ref 0 and calls = ref 0 in
  let vectors = ref [] and nvec = ref 0 in
  let rec fill = function
    | [] -> ()
    | _ when !nvec >= batch_lanes -> ()
    | cls :: rest when given_up t cls ->
        incr skipped;
        fill rest
    | cls :: rest ->
        let outgold = class_outgold t cls in
        incr calls;
        (match Sat_vectors.generate_pairwise_in t.session outgold with
         | Some vec ->
             vectors := vec :: !vectors;
             incr nvec
         | None ->
             note_failure t cls;
             incr skipped);
        fill rest
  in
  fill ordered;
  (match !vectors with
   | [] -> ()
   | first :: _ as vecs ->
       let words = Array.make (N.num_pis t.net) 0L in
       List.iteri (fun lane vec -> Simulator.vector_word vec lane words) vecs;
       for lane = List.length vecs to batch_lanes - 1 do
         Simulator.vector_word first lane words
       done;
       let node_words = Simulator.simulate_word t.net words in
       Eq.refine_word t.eq node_words;
       record_cost t);
  let d =
    {
      empty_guided with
      iterations = 1;
      vectors = !nvec;
      skipped = !skipped;
      gen_sat_calls = !calls;
      guided_time = Timer.now () -. t0;
    }
  in
  add_guided t d;
  d

let run_sat_guided (opts : Sweep_options.t) t =
  run_rounds ~should_stop:opts.Sweep_options.should_stop
    ~iterations:opts.Sweep_options.guided_iterations (fun () ->
      sat_guided_round t)

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
  run_rounds ~should_stop:opts.Sweep_options.should_stop
    ~iterations:opts.Sweep_options.guided_iterations (fun () ->
      guided_round_config t config)

let guided_stats t = t.g_stats

let representative t id =
  let rec follow id = if t.subst.(id) = id then id else follow t.subst.(id) in
  follow id

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

let zero_solver_stats =
  {
    Solver.conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned = 0;
    deleted = 0;
    removed = 0;
    reductions = 0;
    compactions = 0;
    live_clauses = 0;
    live_learnts = 0;
    lbd_core = 0;
    lbd_mid = 0;
    lbd_local = 0;
  }

(* Counter arithmetic over {!Solver.stats} snapshots: the nine monotone
   counters difference/sum meaningfully; the gauge fields are carried
   from [a] so a before/after delta reports the latest database shape. *)
let stats_sub (a : Solver.stats) (b : Solver.stats) =
  {
    Solver.conflicts = a.Solver.conflicts - b.Solver.conflicts;
    decisions = a.Solver.decisions - b.Solver.decisions;
    propagations = a.Solver.propagations - b.Solver.propagations;
    restarts = a.Solver.restarts - b.Solver.restarts;
    learned = a.Solver.learned - b.Solver.learned;
    deleted = a.Solver.deleted - b.Solver.deleted;
    removed = a.Solver.removed - b.Solver.removed;
    reductions = a.Solver.reductions - b.Solver.reductions;
    compactions = a.Solver.compactions - b.Solver.compactions;
    live_clauses = a.Solver.live_clauses;
    live_learnts = a.Solver.live_learnts;
    lbd_core = a.Solver.lbd_core;
    lbd_mid = a.Solver.lbd_mid;
    lbd_local = a.Solver.lbd_local;
  }

let stats_add (a : Solver.stats) (b : Solver.stats) =
  {
    Solver.conflicts = a.Solver.conflicts + b.Solver.conflicts;
    decisions = a.Solver.decisions + b.Solver.decisions;
    propagations = a.Solver.propagations + b.Solver.propagations;
    restarts = a.Solver.restarts + b.Solver.restarts;
    learned = a.Solver.learned + b.Solver.learned;
    deleted = a.Solver.deleted + b.Solver.deleted;
    removed = a.Solver.removed + b.Solver.removed;
    reductions = a.Solver.reductions + b.Solver.reductions;
    compactions = a.Solver.compactions + b.Solver.compactions;
    live_clauses = b.Solver.live_clauses;
    live_learnts = b.Solver.live_learnts;
    lbd_core = b.Solver.lbd_core;
    lbd_mid = b.Solver.lbd_mid;
    lbd_local = b.Solver.lbd_local;
  }

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
    Sat_session.create ~certify:t.certify ~gc:t.gc ~audit:t.audit
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
        acc := stats_add !acc (stats_sub (Sat_session.solver_stats t.session) before))
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

(* Verify one candidate pair, degrading instead of hanging or dying:
     session query at the base conflict budget
     -> same query at 4x the budget, [escalations] times
        (the solver keeps its learned clauses between rungs, so each
        retry resumes the work already paid for)
     -> fresh solver at the next budget (a session poisoned by its own
        clause database cannot poison this rung)
     -> BDD comparison under [bdd_fallback_nodes]
     -> quarantine: the pair is recorded, excluded from future picking,
        and the verdict is [Unknown] — never a wrong merge.
   With [max_conflicts = None] the budgets are unlimited, so only an
   injected fault (or a Violation) can push the ladder past its first
   rung. *)
let verify_pair (opts : Sweep_options.t) t a b =
  let a = representative t a and b = representative t b in
  let acc = ref zero_solver_stats in
  if a = b then (Sat_session.Equal, !acc)
  else begin
    let certify = t.certify || opts.Sweep_options.certify in
    (* The cut-local check runs before any SAT work. Equal is proven over
       a shared cut (and withheld under certification, where the merge
       must cite a DRUP proof); a counterexample comes from an exact cut. *)
    let served =
      match opts.Sweep_options.fun_cache with
      | None -> None
      | Some fc -> (
          match
            Fun_cache.consult fc ~serve_equal:(not certify) ~rng:t.rng
              ~subst:t.subst t.net a b
          with
          | Fun_cache.Equal -> Some Sat_session.Equal
          | Fun_cache.Counterexample vec -> Some (Sat_session.Counterexample vec)
          | Fun_cache.Miss -> None)
    in
    match served with
    | Some v -> (v, !acc)
    | None ->
    let base = opts.Sweep_options.max_conflicts in
    let budget rung =
      match base with None -> None | Some b -> Some (b * (1 lsl (2 * rung)))
    in
    let note_unknown () =
      t.d_stats <- { t.d_stats with unknowns = t.d_stats.unknowns + 1 }
    in
    let bdd_rung () =
      t.d_stats <-
        { t.d_stats with bdd_fallbacks = t.d_stats.bdd_fallbacks + 1 };
      match
        Bdd_backend.check_pair
          ~max_nodes:opts.Sweep_options.bdd_fallback_nodes t.net a b
      with
      | Bdd_backend.Equal -> Sat_session.Equal
      | Bdd_backend.Counterexample vec -> Sat_session.Counterexample vec
      | Bdd_backend.Quota ->
          quarantine_pair t a b;
          Sat_session.Unknown
    in
    let fresh_query ~rung () =
      let verdict, st =
        match budget rung with
        | Some max_conflicts ->
            Miter.check_pair_limited ~subst:t.subst ~rng:t.rng ~max_conflicts
              t.net a b
        | None -> Miter.check_pair_fresh ~subst:t.subst ~rng:t.rng t.net a b
      in
      acc := stats_add !acc st;
      match verdict with
      | Sat_session.Unknown ->
          note_unknown ();
          bdd_rung ()
      | (Sat_session.Equal | Sat_session.Counterexample _) as v -> v
    in
    let fresh_certified_query ~rung () =
      let verdict, valid, st, cert =
        Miter.check_pair_fresh_certified ?max_conflicts:(budget rung)
          ~subst:t.subst ~rng:t.rng t.net a b
      in
      acc := stats_add !acc st;
      if not valid then
        failwith "Sweeper.verify_pair: certificate failed to validate";
      (match cert with
       | Some q ->
           t.cert_queries <- q :: t.cert_queries;
           t.cert_count <- t.cert_count + 1;
           t.last_proof <- t.cert_count - 1
       | None -> ());
      match verdict with
      | Sat_session.Unknown ->
          note_unknown ();
          (* No BDD rung under certification: a BDD verdict carries no
             clausal proof, so the pair is quarantined instead of merged
             on an uncertifiable answer. *)
          quarantine_pair t a b;
          Sat_session.Unknown
      | (Sat_session.Equal | Sat_session.Counterexample _) as v -> v
    in
    let fresh_rung () =
      t.d_stats <-
        { t.d_stats with fresh_fallbacks = t.d_stats.fresh_fallbacks + 1 };
      let rung = opts.Sweep_options.escalations + 1 in
      if t.certify then fresh_certified_query ~rung ()
      else fresh_query ~rung ()
    in
    let rec climb rung =
      match session_query ?max_conflicts:(budget rung) t a b acc with
      | Sat_session.Unknown ->
          note_unknown ();
          if rung < opts.Sweep_options.escalations then begin
            t.d_stats <-
              { t.d_stats with escalations = t.d_stats.escalations + 1 };
            climb (rung + 1)
          end
          else fresh_rung ()
      | (Sat_session.Equal | Sat_session.Counterexample _) as v -> v
    in
    let verdict =
      if certify && not (opts.Sweep_options.incremental
                         && Sat_session.certifying t.session)
      then
        (* Certified but no recording session available (fresh route
           requested, or the sweeper was created without [~certify]):
           every query runs on the one-shot certified miter. *)
        fresh_certified_query ~rung:0 ()
      else if not opts.Sweep_options.incremental then
        (* No session to escalate: the fresh solver is the first rung. *)
        fresh_query ~rung:0 ()
      else climb 0
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
  let on_cex = opts.Sweep_options.on_cex in
  let calls = ref 0 and proved = ref 0 and disproved = ref 0 in
  let conflicts = ref 0 and propagations = ref 0 and restarts = ref 0 in
  let deleted = ref 0 in
  let t0 = Timer.now () in
  (* One candidate query through {!verify_pair}: the configured route
     (incremental session by default, fresh solver or certified DRUP
     otherwise) wrapped in the degradation ladder. Solver-counter deltas
     accumulate on every route. *)
  let check a b =
    let verdict, st = verify_pair opts t a b in
    conflicts := !conflicts + st.Solver.conflicts;
    propagations := !propagations + st.Solver.propagations;
    restarts := !restarts + st.Solver.restarts;
    deleted := !deleted + st.Solver.deleted + st.Solver.removed;
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
                | Miter.Equal ->
                    incr proved;
                    (* Merge into the smaller id so representatives are
                       stable; the class stays on the worklist until a
                       single representative remains. *)
                    merge t a b;
                    audit t;
                    enqueue cls
                | Miter.Counterexample vec ->
                    incr disproved;
                    (match on_cex with Some f -> f vec | None -> ());
                    if one_distance then apply_one_distance t vec
                    else apply_vector t vec;
                    (* Continue with the split-off classes of both nodes;
                       the counter-example separated them, so these are
                       distinct (possibly singleton) classes now. *)
                    enqueue (Eq.class_of t.eq a);
                    enqueue (Eq.class_of t.eq b)
                | Miter.Unknown ->
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
  let d =
    {
      calls = !calls;
      proved = !proved;
      disproved = !disproved;
      conflicts = !conflicts;
      propagations = !propagations;
      restarts = !restarts;
      deleted = !deleted;
      sat_time = Timer.now () -. t0;
    }
  in
  t.s_stats <-
    {
      calls = t.s_stats.calls + d.calls;
      proved = t.s_stats.proved + d.proved;
      disproved = t.s_stats.disproved + d.disproved;
      conflicts = t.s_stats.conflicts + d.conflicts;
      propagations = t.s_stats.propagations + d.propagations;
      restarts = t.s_stats.restarts + d.restarts;
      deleted = t.s_stats.deleted + d.deleted;
      sat_time = t.s_stats.sat_time +. d.sat_time;
    };
  d

let sat_stats t = t.s_stats

let substitution t = t.subst

let gen_failure_counts t =
  List.sort compare
    (Hashtbl.fold (fun key n acc -> (key, n) :: acc) t.gen_failures [])

(* Rebuild the network with proven-equivalent nodes merged: each gate is
   re-created over the representatives of its fanins; non-representative
   gates are skipped entirely (their fanouts now point at the
   representative). A final copy drops logic no PO reaches. *)
let merged_network t =
  let net' = N.create ~name:(N.name t.net ^ "_swept") () in
  let map = Array.make (N.num_nodes t.net) (-1) in
  N.iter_nodes t.net (fun id ->
      match N.kind t.net id with
      | N.Pi _ -> map.(id) <- N.add_pi net'
      | N.Gate f ->
          let rep = representative t id in
          if rep = id then
            let fanins =
              Array.map
                (fun fi -> map.(representative t fi))
                (N.fanins t.net id)
            in
            map.(id) <- N.add_gate ?name:(N.node_name t.net id) net' f fanins);
  Array.iter
    (fun po -> N.add_po net' map.(representative t po))
    (N.pos t.net);
  (* Drop unreachable gates by round-tripping through a reachability copy. *)
  let reachable =
    Simgen_network.Cone.member_mask net'
      (Simgen_network.Cone.fanin_cone_many net'
         (Array.to_list (N.pos net')))
  in
  let net'' = N.create ~name:(N.name net') () in
  let map2 = Array.make (N.num_nodes net') (-1) in
  N.iter_nodes net' (fun id ->
      match N.kind net' id with
      | N.Pi _ -> map2.(id) <- N.add_pi net''
      | N.Gate f ->
          if reachable.(id) then
            map2.(id) <-
              N.add_gate ?name:(N.node_name net' id) net'' f
                (Array.map (fun fi -> map2.(fi)) (N.fanins net' id)));
  Array.iter (fun po -> N.add_po net'' map2.(po)) (N.pos net');
  net'' 
