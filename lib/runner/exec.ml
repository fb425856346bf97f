module N = Simgen_network.Network
module Timer = Simgen_base.Timer
module Rng = Simgen_base.Rng
module Runtime_check = Simgen_base.Runtime_check
module Fault = Simgen_fault.Fault
module Sweeper = Simgen_sweep.Sweeper
module Cec = Simgen_sweep.Cec
module Sat_session = Simgen_sweep.Sat_session
module Sweep_options = Simgen_sweep.Sweep_options
module Fun_cache = Simgen_sweep.Fun_cache
module Solver = Simgen_sat.Solver
module Strategy = Simgen_core.Strategy

(* The budgeted CEC/sweep flow under a supervisor. One attempt mirrors
   [Cec.check] (random rounds, guided rounds, SAT sweep, PO miters with
   substitution and counter-example feedback) with a cooperative budget
   check at every phase boundary, a telemetry event per phase, and the
   shared pattern cache consulted before and fed after the solver work.
   The first random round always runs, so even a job whose deadline has
   already passed returns a non-empty cost history with its partial
   result.

   The supervisor around it owns the retry policy: an attempt that dies
   on an exception (a parse error, an invariant violation the sweeper
   could not absorb, an injected crash) or that a watchdog cut off is
   retried with jittered exponential backoff, up to [spec.retry]'s
   attempt cap; the wall-clock deadline spans attempts (each retry gets
   the remaining time), while the watchdog restarts per attempt. Every
   outcome — success, exhaustion, or the last attempt's failure — leaves
   through [finish], so exactly one Finished event is emitted and
   nothing ever escapes to the worker domain. *)

exception Over_budget

(* How long an injected worker stall may hold the domain when no budget
   is armed to cut it off — bounded so unbudgeted smoke runs cannot
   hang. *)
let max_unbudgeted_stall = 0.5

let fault_delta before after =
  List.filter_map
    (fun (site, n) ->
      let prev =
        match List.assoc_opt site before with Some p -> p | None -> 0
      in
      if n > prev then Some (site, n - prev) else None)
    after

let run ?cache ?fun_cache ?cancel ~events ~worker (spec : Job.spec) : Job.result
    =
  let t0 = Timer.now () in
  let emit payload = Events.emit events ~job:spec.id ~label:spec.label payload in
  emit (Started { worker });
  let fc_before = Option.map Fun_cache.stats fun_cache in
  let cache_hits = ref 0 and cache_added = ref 0 in
  let po_calls = ref 0 in
  (* PO-phase solver-counter deltas, kept apart from the sweep's own
     stats so the Finished totals attribute work per phase. *)
  let po_conflicts = ref 0 and po_propagations = ref 0 and po_restarts = ref 0 in
  let attempts = ref 0 in
  let retry_rng = Rng.create (spec.seed lxor 0x7e7a) in
  let faults_at_start = Fault.log () in
  let finish sweeper status =
    let budget_status =
      match status with
      | Job.Budget_exhausted reason -> Budget.reason_to_string reason
      | Job.Swept | Job.Equivalent | Job.Not_equivalent _ | Job.Inconclusive _
      | Job.Failed _ ->
          "ok"
    in
    (* Ladder telemetry: what degradation the attempt needed, and which
       pairs were quarantined rather than decided. *)
    let quarantined =
      match sweeper with
      | None -> []
      | Some sw ->
          let d = Sweeper.degrade_stats sw in
          if
            d.Sweeper.unknowns > 0 || d.Sweeper.escalations > 0
            || d.Sweeper.fresh_fallbacks > 0 || d.Sweeper.bdd_fallbacks > 0
            || d.Sweeper.session_rebuilds > 0
          then
            emit
              (Degrade
                 {
                   unknowns = d.Sweeper.unknowns;
                   escalations = d.Sweeper.escalations;
                   fresh_fallbacks = d.Sweeper.fresh_fallbacks;
                   bdd_fallbacks = d.Sweeper.bdd_fallbacks;
                   session_rebuilds = d.Sweeper.session_rebuilds;
                 });
          List.iter
            (fun (a, b) -> emit (Quarantine { a; b }))
            (List.rev d.Sweeper.quarantined);
          d.Sweeper.quarantined
    in
    (* Cut-check telemetry: this job's deltas. One check value serves
       every job of a daemon, hence the delta. *)
    (match (fun_cache, fc_before) with
     | Some fc, Some (b : Fun_cache.stats) ->
         let s = Fun_cache.stats fc in
         emit
           (Fun_cache_stats
              {
                consults = s.consults - b.consults;
                hits = s.hits - b.hits;
                misses = s.misses - b.misses;
                local_proofs = s.local_proofs - b.local_proofs;
              })
     | _ -> ());
    let result =
      {
        Job.spec;
        status;
        final_cost =
          (match sweeper with Some sw -> Sweeper.cost sw | None -> 0);
        cost_history =
          (match sweeper with Some sw -> Sweeper.cost_history sw | None -> []);
        guided =
          (match sweeper with
           | Some sw -> Sweeper.guided_stats sw
           | None -> Sweeper.(empty_guided));
        sat =
          (match sweeper with
           | Some sw -> Sweeper.sat_stats sw
           | None -> Sweeper.(empty_sat));
        po_calls = !po_calls;
        cache_hits = !cache_hits;
        cache_added = !cache_added;
        worker;
        attempts = max 1 !attempts;
        quarantined;
        time = Timer.now () -. t0;
      }
    in
    emit
      (Finished
         {
           status = Job.status_to_string status;
           budget = budget_status;
           final_cost = result.Job.final_cost;
           cost_history = result.Job.cost_history;
           sat_calls = result.Job.sat.Sweeper.calls + !po_calls;
           sat_conflicts = result.Job.sat.Sweeper.conflicts + !po_conflicts;
           sat_propagations =
             result.Job.sat.Sweeper.propagations + !po_propagations;
           sat_restarts = result.Job.sat.Sweeper.restarts + !po_restarts;
           cache_hits = !cache_hits;
           cache_added = !cache_added;
           attempts = result.Job.attempts;
           time = result.Job.time;
         });
    result
  in
  (* One full attempt of the flow. Returns the sweeper (for partial
     stats) and the attempt's status; raises on crash-shaped failures,
     which the supervisor turns into retries or a structured [Failed]. *)
  let attempt_once budget =
    (* The worker-crash fault dies here, before any phase: the shape of a
       domain lost to a poisoned job. *)
    Fault.crash "worker-crash";
    let stop = Budget.should_stop budget in
    (* The worker-stall fault holds the domain until a watchdog (or any
       other budget) cuts it off — bounded when nothing is armed. *)
    let stalled_out =
      if Fault.enabled () && Fault.fire "worker-stall" then begin
        let t_stall = Timer.now () in
        while
          Budget.check budget = None
          && Timer.now () -. t_stall < max_unbudgeted_stall
        do
          Unix.sleepf 0.01
        done;
        Budget.check budget
      end
      else None
    in
    match stalled_out with
    | Some reason ->
        (* The stall consumed the whole attempt: a structured exhaustion
           with no partial stats. (A budget that trips without a stall
           still runs the unconditional first round, so those partial
           results keep at least one cost sample.) *)
        (None, Job.Budget_exhausted reason)
    | None ->
    (* Pre-flight validation: a structurally broken input would burn its
       whole budget on garbage (or crash mid-sweep); lint errors fail the
       job here, as a [Failed] result with the first diagnostic. *)
    let lint net =
      let diags = Simgen_check.Lint.network net in
      (* Under runtime checks, also audit the clause stream the Tseitin
         encoder would emit for this network (C001..C008) — catches
         encoder regressions before the sweep trusts the encoding. *)
      let diags =
        if Runtime_check.enabled () then
          diags @ Simgen_check.Lint.tseitin_encoding net
        else diags
      in
      let errors, warnings, infos = Simgen_check.Diagnostic.counts diags in
      emit (Lint { target = N.name net; errors; warnings; infos });
      Simgen_check.Audit.check_exn ~what:(N.name net) diags;
      net
    in
    let net, po_pairs =
      match spec.kind with
      | Job.Sweep c -> (lint (Job.load c), None)
      | Job.Cec (c1, c2) ->
          let n1 = lint (Job.load c1) and n2 = lint (Job.load c2) in
          if N.num_pos n1 <> N.num_pos n2 then
            failwith "PO count mismatch";
          let joined, pos1, pos2 = Cec.join n1 n2 in
          (joined, Some (pos1, pos2))
    in
    let config = Strategy.config spec.strategy in
    let sweep_opts =
      {
        Sweep_options.default with
        Sweep_options.seed = spec.seed;
        strategy = spec.strategy;
        max_conflicts = spec.max_conflicts;
        certify = spec.certify;
        solver_audit = spec.solver_audit;
        should_stop = stop;
        fun_cache;
      }
    in
    let sweeper = Sweeper.create sweep_opts net in
    (* Certificate phase (certify jobs): assemble the whole-sweep
       certificate and replay it through the independent checker before
       declaring the status final. An invalid certificate overrides any
       status — a merge the checker cannot re-establish makes the whole
       result untrustworthy. *)
    let certified status =
      if not spec.certify then status
      else begin
        let t_cert = Timer.now () in
        let report = Simgen_check.Certificate.check (Sweeper.certificate sweeper) in
        emit
          (Certificate
             {
               queries = report.Simgen_check.Certificate.queries;
               proved = report.Simgen_check.Certificate.proved;
               merges = report.Simgen_check.Certificate.merges;
               steps_checked = report.Simgen_check.Certificate.steps_checked;
               steps_trimmed = report.Simgen_check.Certificate.steps_trimmed;
               valid = report.Simgen_check.Certificate.valid;
               time = Timer.now () -. t_cert;
             });
        if report.Simgen_check.Certificate.valid then status
        else
          Job.Failed
            {
              message =
                (match report.Simgen_check.Certificate.diags with
                 | d :: _ -> "certificate:" ^ Simgen_check.Diagnostic.to_string d
                 | [] -> "certificate:invalid");
              attempts = !attempts;
              faults = fault_delta faults_at_start (Fault.log ());
            }
      end
    in
    let share vec =
      match cache with
      | Some c -> if Pattern_cache.add c vec then incr cache_added
      | None -> ()
    in
    try
      (* Phase 0: replay shared patterns from earlier compatible jobs so
         related instances start with pre-split classes. *)
      (match cache with
       | Some c -> (
           match Pattern_cache.borrow c ~npis:(N.num_pis net) with
           | [] -> ()
           | vecs ->
               cache_hits := List.length vecs;
               Sweeper.apply_vectors sweeper vecs;
               emit
                 (Cache_replay
                    { vectors = !cache_hits; cost = Sweeper.cost sweeper }))
       | None -> ());
      (* Phase 1: random simulation. The first round is unconditional so a
         partial result always carries at least one cost sample. *)
      for round = 1 to max 1 spec.random_rounds do
        if round > 1 && stop () then raise Over_budget;
        Sweeper.random_round sweeper;
        emit (Random_round { round; cost = Sweeper.cost sweeper })
      done;
      (* Phase 2: guided simulation, budget-checked per round. *)
      for round = 1 to spec.guided_iterations do
        if stop () then raise Over_budget;
        let d = Sweeper.guided_round_config sweeper config in
        Budget.note_guided_iteration budget;
        emit
          (Guided_round
             {
               round;
               cost = Sweeper.cost sweeper;
               vectors = d.Sweeper.vectors;
               conflicts = d.Sweeper.gen_conflicts;
               skipped = d.Sweeper.skipped;
             })
      done;
      (* Phase 3: SAT sweeping under the remaining call/deadline budget;
         counter-examples feed the shared cache. *)
      if stop () then raise Over_budget;
      let s =
        Sweeper.sat_sweep
          {
            sweep_opts with
            Sweep_options.max_sat_calls = Budget.remaining_sat_calls budget;
            on_cex = Some share;
          }
          sweeper
      in
      Budget.note_sat_calls budget s.Sweeper.calls;
      emit
        (Sat_sweep
           {
             calls = s.Sweeper.calls;
             proved = s.Sweeper.proved;
             disproved = s.Sweeper.disproved;
             conflicts = s.Sweeper.conflicts;
             propagations = s.Sweeper.propagations;
             restarts = s.Sweeper.restarts;
             deleted = s.Sweeper.deleted;
             cost = Sweeper.cost sweeper;
           });
      if stop () then raise Over_budget;
      (* Phase 4 (CEC only): PO miters over the proven substitution,
         through the degradation ladder (the sweep's session by default —
         cone encodings and learned clauses carry over; per-call counter
         deltas are attributed to the PO phase). *)
      match po_pairs with
      | None -> (Some sweeper, certified Job.Swept)
      | Some (pos1, pos2) ->
          let check_po a b =
            let verdict, st = Sweeper.verify_pair sweep_opts sweeper a b in
            po_conflicts := !po_conflicts + st.Solver.conflicts;
            po_propagations := !po_propagations + st.Solver.propagations;
            po_restarts := !po_restarts + st.Solver.restarts;
            verdict
          in
          let rec check_pos i unknowns =
            if i >= Array.length pos1 then
              match unknowns with
              | [] -> Job.Equivalent
              | pos -> Job.Inconclusive { pos = List.rev pos }
            else begin
              let a = Sweeper.representative sweeper pos1.(i)
              and b = Sweeper.representative sweeper pos2.(i) in
              if a = b then check_pos (i + 1) unknowns
              else if stop () then raise Over_budget
              else begin
                incr po_calls;
                Budget.note_sat_calls budget 1;
                match check_po a b with
                | Sat_session.Equal ->
                    (* Through [Sweeper.merge] so certify jobs log the PO
                       merge against the proof that established it. *)
                    Sweeper.merge sweeper a b;
                    check_pos (i + 1) unknowns
                | Sat_session.Counterexample vector ->
                    share vector;
                    Sweeper.apply_vector sweeper vector;
                    Job.Not_equivalent { po = i; vector }
                | Sat_session.Unknown -> check_pos (i + 1) (i :: unknowns)
              end
            end
          in
          (Some sweeper, certified (check_pos 0 []))
    with Over_budget ->
      let reason =
        match Budget.check budget with
        | Some r -> r
        | None -> assert false (* Over_budget is only raised when tripped *)
      in
      (Some sweeper, Job.Budget_exhausted reason)
  in
  (* The supervisor: run attempts until one yields a final status. *)
  let cancelled () =
    match cancel with Some c -> Simgen_base.Shared.Atomic.get c | None -> false
  in
  let rec supervise () =
    incr attempts;
    let n = !attempts in
    let faults_before = Fault.log () in
    (* The deadline spans attempts — each retry gets the remaining
       wall-clock time — while the watchdog restarts per attempt. *)
    let limits =
      match spec.limits.Budget.deadline with
      | None -> spec.limits
      | Some d ->
          {
            spec.limits with
            Budget.deadline = Some (Float.max 0.0 (d -. (Timer.now () -. t0)));
          }
    in
    let budget = Budget.start ?cancel limits in
    let note_faults () =
      List.iter
        (fun (site, count) -> emit (Fault { site; count }))
        (fault_delta faults_before (Fault.log ()))
    in
    let retry_or ~cause fallback =
      if n < spec.retry.Retry_policy.max_attempts && not (cancelled ()) then begin
        let delay = Retry_policy.delay spec.retry retry_rng ~attempt:n in
        emit (Retry { attempt = n; delay; cause });
        if delay > 0.0 then Unix.sleepf delay;
        supervise ()
      end
      else fallback ()
    in
    match attempt_once budget with
    | sweeper, status -> (
        note_faults ();
        match status with
        | Job.Budget_exhausted Budget.Watchdog ->
            (* A stalled attempt is retried; other exhaustions are final —
               retrying would spend the same budget the same way. *)
            retry_or ~cause:"watchdog" (fun () -> finish sweeper status)
        | Job.Budget_exhausted
            ( Budget.Deadline | Budget.Sat_calls | Budget.Guided_iterations
            | Budget.Cancelled )
        | Job.Equivalent | Job.Not_equivalent _ | Job.Inconclusive _
        | Job.Swept | Job.Failed _ ->
            finish sweeper status)
    | exception e ->
        note_faults ();
        let message =
          match e with
          | Runtime_check.Violation msg -> "violation:" ^ msg
          | Fault.Injected site -> "injected-fault:" ^ site
          | e -> Printexc.to_string e
        in
        retry_or ~cause:message (fun () ->
            finish None
              (Job.Failed
                 {
                   message;
                   attempts = n;
                   faults = fault_delta faults_at_start (Fault.log ());
                 }))
  in
  supervise ()
