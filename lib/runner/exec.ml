module N = Simgen_network.Network
module Timer = Simgen_base.Timer
module Rng = Simgen_base.Rng
module Runtime_check = Simgen_base.Runtime_check
module Fault = Simgen_fault.Fault
module Sweeper = Simgen_sweep.Sweeper
module Cec = Simgen_sweep.Cec
module Sweep_options = Simgen_sweep.Sweep_options
module Fun_cache = Simgen_sweep.Fun_cache

(* A job under a supervisor. One attempt loads and lints the circuits,
   replays the shared pattern cache, and runs the flow of [Cec.run]
   with the job's budget as its stop predicate and an observer that
   hands the flow's own stats records to telemetry events and its
   counter-examples to the pattern cache; certify jobs then check the
   whole-sweep certificate.
   The flow enforces its own SAT-call cap ([max_sat_calls]); a flow
   that the cap cut short ends the job as [Budget_exhausted Sat_calls],
   unless the budget tripped first. The first random round always runs,
   so even a job whose deadline has already passed returns a flow
   report with a non-empty cost history. The result keeps that report
   whole ([Job.result.flow]); the Finished event carries the result.

   The supervisor around it owns the retry policy: an attempt that dies
   on an exception (a parse error, an invariant violation the sweeper
   could not absorb, an injected crash) or that a watchdog cut off is
   retried with jittered exponential backoff, up to [spec.retry]'s
   attempt cap; the wall-clock deadline spans attempts (each retry gets
   the remaining time), while the watchdog restarts per attempt. Every
   outcome — success, exhaustion, or the last attempt's failure — leaves
   through [finish], so exactly one Finished event is emitted and
   nothing ever escapes to the worker domain. *)

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

let run ?cache ?cancel ~events ~worker (spec : Job.spec) : Job.result =
  let t0 = Timer.now () in
  let emit payload = Events.emit events ~job:spec.id ~label:spec.label payload in
  emit (Started { worker });
  let opts = spec.options in
  let cache_hits = ref 0 and cache_added = ref 0 in
  let attempts = ref 0 in
  let retry_rng = Rng.create (opts.Sweep_options.seed lxor 0x7e7a) in
  let faults_at_start = Fault.log () in
  (* [flow] is the last attempt's sweeper and flow report, if it got that
     far. *)
  let finish flow status =
    (* Ladder telemetry: what degradation the attempt needed, and which
       pairs were quarantined rather than decided. *)
    let quarantined =
      match flow with
      | None -> []
      | Some (sw, _) ->
          let d = Sweeper.degrade_stats sw in
          if { d with quarantined = [] } <> Sweeper.empty_degrade then
            emit (Degrade d);
          List.iter
            (fun (a, b) -> emit (Quarantine { a; b }))
            (List.rev d.quarantined);
          (* Cut-check telemetry: the sweeper's own counters, so the
             job's counts alone. *)
          let fc = Sweeper.fun_cache_stats sw in
          if fc.Fun_cache.consults > 0 then emit (Fun_cache_stats fc);
          d.quarantined
    in
    let result =
      {
        Job.spec;
        status;
        flow = Option.map snd flow;
        cache_hits = !cache_hits;
        cache_added = !cache_added;
        worker;
        attempts = max 1 !attempts;
        quarantined;
        time = Timer.now () -. t0;
      }
    in
    emit (Finished result);
    result
  in
  (* One full attempt. Returns the sweeper and flow report (for partial
     stats) and the attempt's status; raises on crash-shaped failures,
     which the supervisor turns into retries or a structured [Failed]. *)
  let attempt_once budget =
    (* The worker-crash fault dies here, before any phase: the shape of a
       domain lost to a poisoned job. *)
    Fault.crash "worker-crash";
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
      let diags = Simgen_check.Net_lint.run net in
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
    let net, pos1, pos2 =
      match spec.kind with
      | Job.Sweep c -> (lint (Job.load c), [||], [||])
      | Job.Cec (c1, c2) ->
          let n1 = lint (Job.load c1) and n2 = lint (Job.load c2) in
          if N.num_pos n1 <> N.num_pos n2 then
            failwith "PO count mismatch";
          Cec.join n1 n2
    in
    let sweeper = Sweeper.create opts net in
    (* Certificate phase (certify jobs): assemble the whole-sweep
       certificate and replay it through the independent checker before
       declaring the status final. An invalid certificate overrides any
       status — a merge the checker cannot re-establish makes the whole
       result untrustworthy. *)
    let certified status =
      if not opts.Sweep_options.certify then status
      else begin
        let t_cert = Timer.now () in
        let report = Simgen_check.Certificate.check (Sweeper.certificate sweeper) in
        emit (Certificate { report; time = Timer.now () -. t_cert });
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
    (* Replay shared patterns from earlier compatible jobs so related
       instances start with pre-split classes. *)
    (match cache with
     | Some c -> (
         match Pattern_cache.borrow c ~npis:(N.num_pis net) with
         | [] -> ()
         | vecs ->
             cache_hits := List.length vecs;
             Sweeper.apply_vectors sweeper vecs;
             emit (Cache_replay { vectors = !cache_hits; cost = Sweeper.cost sweeper }))
     | None -> ());
    (* The flow's reports become telemetry; its counter-examples feed the
       shared cache. *)
    let observe : Sweep_options.observation -> unit = function
      | Random_round round -> emit (Random_round { round; cost = Sweeper.cost sweeper })
      | Guided_round { round; delta } ->
          emit (Guided_round { round; cost = Sweeper.cost sweeper; delta })
      | Sat_sweep stats -> emit (Sat_sweep { stats; cost = Sweeper.cost sweeper })
      | Counterexample vec -> (
          match cache with
          | Some c -> if Pattern_cache.add c vec then incr cache_added
          | None -> ())
    in
    let report =
      Cec.run
        {
          opts with
          Sweep_options.random_rounds = max 1 opts.Sweep_options.random_rounds;
          should_stop = Budget.should_stop budget;
          observe;
        }
        sweeper pos1 pos2
    in
    (* The SAT-call cap cut the flow short if it stopped it before a PO
       query or the sweep spent it. *)
    let capped =
      match opts.Sweep_options.max_sat_calls with
      | Some m -> report.Cec.sat.Sweeper.calls >= m
      | None -> false
    in
    let status =
      if report.Cec.stopped || capped then
        (* A tripped budget's reason sticks, and wins over the cap. *)
        Job.Budget_exhausted
          (Option.value (Budget.check budget) ~default:Budget.Sat_calls)
      else
        certified
          (match (spec.kind, report.Cec.outcome) with
           | Job.Sweep _, _ -> Job.Swept
           | Job.Cec _, Cec.Equivalent -> Job.Equivalent
           | Job.Cec _, Cec.Not_equivalent { po; vector } ->
               Job.Not_equivalent { po; vector }
           | Job.Cec _, Cec.Inconclusive { pos } -> Job.Inconclusive { pos })
    in
    (Some (sweeper, report), status)
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
    | flow, status -> (
        note_faults ();
        match status with
        | Job.Budget_exhausted Budget.Watchdog ->
            (* A stalled attempt is retried; other exhaustions are final —
               retrying would spend the same budget the same way. *)
            retry_or ~cause:"watchdog" (fun () -> finish flow status)
        | Job.Budget_exhausted
            (Budget.Deadline | Budget.Sat_calls | Budget.Cancelled)
        | Job.Equivalent | Job.Not_equivalent _ | Job.Inconclusive _
        | Job.Swept | Job.Failed _ ->
            finish flow status)
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
