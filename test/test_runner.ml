module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Runner = Simgen_runner
module Budget = Runner.Budget
module Job = Runner.Job
module Events = Runner.Events
module Pattern_cache = Runner.Pattern_cache
module Exec = Runner.Exec
module Pool = Runner.Pool
module Manifest = Runner.Manifest
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Cec = Simgen_sweep.Cec
module Solver = Simgen_sat.Solver

(* Job options off the defaults: a seed and a guided-round count. *)
let opts ?(seed = 1) ?(guided_iterations = 20) () =
  { Sweep_options.default with Sweep_options.seed; guided_iterations }

let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)
let tt_xor2 = TT.xor (TT.var 0 2) (TT.var 1 2)

let random_net seed npis ngates =
  let rng = Rng.create seed in
  let net = N.create () in
  let ids = ref [] in
  for _ = 1 to npis do
    ids := N.add_pi net :: !ids
  done;
  for _ = 1 to ngates do
    let pool = Array.of_list !ids in
    let arity = 1 + Rng.int rng (min 4 (Array.length pool)) in
    let fanins = Array.init arity (fun _ -> Rng.choose rng pool) in
    ids := N.add_gate net (TT.random rng arity) fanins :: !ids
  done;
  let pool = Array.of_list !ids in
  for _ = 1 to 3 do
    N.add_po net (Rng.choose rng pool)
  done;
  net

(* f = (a & b) | (c & d), with the fanin orders given by [comm]. *)
let and_or_net comm =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let d = N.add_pi net in
  let pair x y = if comm then [| y; x |] else [| x; y |] in
  let x = N.add_gate net tt_and2 (pair a b) in
  let y = N.add_gate net tt_and2 (pair c d) in
  N.add_po net (N.add_gate net tt_or2 (pair x y));
  net

(* Like [and_or_net] but with an XOR root: differs from it on some
   inputs, so a CEC of the two is not equivalent. *)
let and_xor_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let d = N.add_pi net in
  let x = N.add_gate net tt_and2 [| a; b |] in
  let y = N.add_gate net tt_and2 [| c; d |] in
  N.add_po net (N.add_gate net tt_xor2 [| x; y |]);
  net

(* A near-miss pair over [npis] inputs: z2 = z1 XOR (AND of all PIs), so
   the two gates differ on exactly one minterm in 2^npis. Random rounds
   (64 vectors) essentially never split them, guided generation is
   disabled by the caller, and the SAT sweep must disprove the pair —
   producing a genuine distinguishing pattern for the cache. *)
let near_miss_net npis =
  let net = N.create () in
  let pis = Array.init npis (fun _ -> N.add_pi net) in
  let conj = ref pis.(0) in
  for i = 1 to npis - 1 do
    conj := N.add_gate net tt_and2 [| !conj; pis.(i) |]
  done;
  let z1 = N.add_gate net tt_or2 [| pis.(0); pis.(1) |] in
  let z2 = N.add_gate net tt_xor2 [| z1; !conj |] in
  N.add_po net z1;
  N.add_po net z2;
  net

let run_job ?cache ?cancel ?(events = Events.null) spec =
  Exec.run ?cache ?cancel ~events ~worker:0 spec

(* The flow report of a job whose last attempt reached the flow. *)
let flow (r : Job.result) =
  match r.Job.flow with
  | Some f -> f
  | None -> Alcotest.fail "no flow report"

let check_status msg expected actual =
  Alcotest.(check string) msg
    (Job.status_to_string expected)
    (Job.status_to_string actual)

(* ------------------------------------------------------------------ *)
(* Budget unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_budget_unlimited () =
  let b = Budget.start Budget.unlimited in
  Alcotest.(check bool) "never trips" false (Budget.should_stop b ())

let test_budget_sticky_reason () =
  let cancel = Simgen_base.Shared.Atomic.make "test.sticky.cancel" false in
  let b =
    Budget.start ~cancel { Budget.unlimited with Budget.watchdog = Some 0.0 }
  in
  Alcotest.(check (option string)) "first exhaustion" (Some "watchdog")
    (Option.map Budget.reason_to_string (Budget.check b));
  (* A cancel arriving later (checked first, were the budget fresh) does
     not change the verdict. *)
  Simgen_base.Shared.Atomic.set cancel true;
  Alcotest.(check (option string)) "reason is sticky" (Some "watchdog")
    (Option.map Budget.reason_to_string (Budget.check b))

let test_budget_cancel () =
  let cancel = Simgen_base.Shared.Atomic.make "test.cancel" false in
  let b = Budget.start ~cancel Budget.unlimited in
  Alcotest.(check bool) "not cancelled yet" false (Budget.should_stop b ());
  Simgen_base.Shared.Atomic.set cancel true;
  Alcotest.(check (option string)) "cancelled" (Some "cancelled")
    (Option.map Budget.reason_to_string (Budget.check b))

(* ------------------------------------------------------------------ *)
(* Pattern cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_dedup () =
  let c = Pattern_cache.create () in
  Alcotest.(check bool) "first add stores" true
    (Pattern_cache.add c [| true; false |]);
  Alcotest.(check bool) "identical vector rejected" false
    (Pattern_cache.add c [| true; false |]);
  Alcotest.(check bool) "distinct vector stores" true
    (Pattern_cache.add c [| false; true |]);
  Alcotest.(check int) "two stored" 2 (Pattern_cache.size c)

let test_cache_capacity () =
  let c = Pattern_cache.create () in
  (* 65 distinct 7-bit vectors, oldest [0000000], newest [1000000]. *)
  let vec i = Array.init 7 (fun b -> (i lsr b) land 1 = 1) in
  for i = 0 to 64 do
    ignore (Pattern_cache.add c (vec i))
  done;
  Alcotest.(check int) "oldest evicted" 64 (Pattern_cache.size c);
  let vecs = Pattern_cache.borrow c ~npis:7 in
  Alcotest.(check bool) "newest survives" true
    (List.exists (fun v -> v = vec 64) vecs);
  Alcotest.(check bool) "oldest gone" false
    (List.exists (fun v -> v = vec 0) vecs)

let test_cache_key_isolation () =
  let c = Pattern_cache.create () in
  ignore (Pattern_cache.add c [| true; false |]);
  ignore (Pattern_cache.add c [| true; false; true |]);
  Alcotest.(check int) "npis=2 sees its own vectors" 1
    (List.length (Pattern_cache.borrow c ~npis:2));
  Alcotest.(check int) "npis=3 sees its own vectors" 1
    (List.length (Pattern_cache.borrow c ~npis:3));
  Alcotest.(check int) "npis=4 sees nothing" 0
    (List.length (Pattern_cache.borrow c ~npis:4));
  Alcotest.(check int) "two hits" 2 (Pattern_cache.hits c);
  Alcotest.(check int) "one miss" 1 (Pattern_cache.misses c)

(* ------------------------------------------------------------------ *)
(* Budgeted execution                                                  *)
(* ------------------------------------------------------------------ *)

(* Acceptance criterion: a job with an already-expired deadline returns
   [Budget_exhausted Deadline] with a partial cost history (the first
   random round always runs) instead of running to completion. *)
let test_deadline_partial_result () =
  let net = random_net 42 8 120 in
  let spec =
    Job.make ~options:(opts ~seed:7 ~guided_iterations:20 ()) ~id:0
      ~limits:{ Budget.unlimited with Budget.deadline = Some 0.0 }
      (Job.Sweep (Job.Inline net))
  in
  let r = run_job spec in
  check_status "deadline tripped"
    (Job.Budget_exhausted Budget.Deadline)
    r.Job.status;
  let f = flow r in
  Alcotest.(check bool) "partial cost history" true (f.Cec.cost_history <> []);
  Alcotest.(check int) "no guided work under an expired deadline" 0
    f.Cec.guided.Sweeper.iterations;
  Alcotest.(check int) "no solver work under an expired deadline" 0
    f.Cec.sat.Sweeper.calls;
  Alcotest.(check int) "final cost matches the history"
    (List.nth f.Cec.cost_history (List.length f.Cec.cost_history - 1))
    f.Cec.final_cost

let test_max_sat_calls_budget () =
  (* Two equivalent-pair classes survive simulation, so a completed sweep
     needs at least two UNSAT calls; a one-call budget must trip. *)
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let c = N.add_pi net in
  let d = N.add_pi net in
  let x1 = N.add_gate net tt_and2 [| a; b |] in
  let x2 = N.add_gate net tt_and2 [| b; a |] in
  let y1 = N.add_gate net tt_or2 [| c; d |] in
  let y2 = N.add_gate net tt_or2 [| d; c |] in
  List.iter (N.add_po net) [ x1; x2; y1; y2 ];
  let spec =
    Job.make
      ~options:
        { (opts ~guided_iterations:0 ()) with Sweep_options.max_sat_calls = Some 1 }
      ~id:0
      (Job.Sweep (Job.Inline net))
  in
  let r = run_job spec in
  check_status "call budget tripped"
    (Job.Budget_exhausted Budget.Sat_calls)
    r.Job.status;
  Alcotest.(check int) "exactly the budgeted calls ran" 1
    (flow r).Cec.sat.Sweeper.calls

let test_cec_equivalent () =
  let spec =
    Job.make ~id:0
      (Job.Cec (Job.Inline (and_or_net false), Job.Inline (and_or_net true)))
  in
  let r = run_job spec in
  check_status "commuted fanins are equivalent" Job.Equivalent r.Job.status

let test_cec_not_equivalent () =
  let n1 = and_or_net false in
  let n2 = and_xor_net () in
  let spec = Job.make ~id:0 (Job.Cec (Job.Inline n1, Job.Inline n2)) in
  let r = run_job spec in
  match r.Job.status with
  | Job.Not_equivalent { po; vector } ->
      Alcotest.(check int) "single PO pair" 0 po;
      let v1 = N.eval n1 vector and v2 = N.eval n2 vector in
      let o1 = (N.pos n1).(0) and o2 = (N.pos n2).(0) in
      Alcotest.(check bool) "witness distinguishes the outputs" true
        (v1.(o1) <> v2.(o2))
  | s -> Alcotest.failf "expected a counter-example, got %s" (Job.status_to_string s)

let test_failed_job_is_contained () =
  (* PI-count mismatch makes the second job fail; its siblings are
     unaffected and the pool still reports every job. *)
  let good = Job.make ~id:0 (Job.Sweep (Job.Inline (and_or_net false))) in
  let bad =
    Job.make ~id:1
      (Job.Cec (Job.Inline (and_or_net false), Job.Inline (near_miss_net 3)))
  in
  let report = Pool.run ~workers:1 [ good; bad ] in
  check_status "good job swept" Job.Swept report.Pool.results.(0).Job.status;
  (match report.Pool.results.(1).Job.status with
   | Job.Failed _ -> ()
   | s -> Alcotest.failf "expected failure, got %s" (Job.status_to_string s));
  Alcotest.(check string) "summary counts the failure" "2 jobs"
    (String.sub (Pool.summary report) 0 6)

(* ------------------------------------------------------------------ *)
(* Pool: cancellation, determinism, cache accounting                   *)
(* ------------------------------------------------------------------ *)

let test_cancellation () =
  let cancel = Simgen_base.Shared.Atomic.make "test.cancel" true in
  let jobs =
    List.init 4 (fun id ->
        Job.make ~options:(opts ~seed:(id + 1) ()) ~id (Job.Sweep (Job.Inline (random_net id 6 40))))
  in
  let report = Pool.run ~workers:2 ~cancel jobs in
  Array.iter
    (fun r ->
      check_status "every job cancelled"
        (Job.Budget_exhausted Budget.Cancelled)
        r.Job.status;
      Alcotest.(check bool) "even cancelled jobs carry a cost sample" true
        ((flow r).Cec.cost_history <> []))
    report.Pool.results

let batch_jobs () =
  [
    Job.make ~options:(opts ~seed:11 ()) ~id:0
      (Job.Cec (Job.Inline (and_or_net false), Job.Inline (and_or_net true)));
    Job.make ~options:(opts ~seed:12 ()) ~id:1
      (Job.Cec (Job.Inline (and_or_net false), Job.Inline (and_xor_net ())));
    Job.make ~options:(opts ~seed:13 ~guided_iterations:5 ()) ~id:2
      (Job.Sweep (Job.Inline (random_net 99 8 80)));
    Job.make ~options:(opts ~seed:14 ~guided_iterations:0 ()) ~id:3
      (Job.Sweep (Job.Inline (near_miss_net 10)));
  ]

let test_seed_determinism_across_workers () =
  (* No shared cache: per-job results must be identical however the jobs
     are scheduled across domains. *)
  let r1 = Pool.run ~workers:1 (batch_jobs ()) in
  let r2 = Pool.run ~workers:2 (batch_jobs ()) in
  Alcotest.(check int) "same job count"
    (Array.length r1.Pool.results)
    (Array.length r2.Pool.results);
  Array.iteri
    (fun i a ->
      let b = r2.Pool.results.(i) in
      Alcotest.(check int) "results stay in job order" i b.Job.spec.Job.id;
      check_status "same status" a.Job.status b.Job.status;
      let a = flow a and b = flow b in
      Alcotest.(check int) "same final cost" a.Cec.final_cost b.Cec.final_cost;
      Alcotest.(check (list int)) "same cost history" a.Cec.cost_history
        b.Cec.cost_history;
      Alcotest.(check int) "same solver calls" a.Cec.sat.Sweeper.calls
        b.Cec.sat.Sweeper.calls;
      Alcotest.(check int) "same guided rounds" a.Cec.guided.Sweeper.iterations
        b.Cec.guided.Sweeper.iterations)
    r1.Pool.results

let test_cache_hit_accounting () =
  (* Job 0 must disprove the near-miss pair by SAT (random simulation has
     a ~2^-16 chance per vector of splitting it), contributing the
     counter-example to the cache; the identical job 1 replays it and
     starts pre-split, so it needs no solver call at all. *)
  let net = near_miss_net 16 in
  let jobs =
    [
      Job.make ~options:(opts ~seed:5 ~guided_iterations:0 ()) ~id:0 (Job.Sweep (Job.Inline net));
      Job.make ~options:(opts ~seed:5 ~guided_iterations:0 ()) ~id:1 (Job.Sweep (Job.Inline net));
    ]
  in
  let cache = Pattern_cache.create () in
  let report = Pool.run ~workers:1 ~cache jobs in
  let r0 = report.Pool.results.(0) and r1 = report.Pool.results.(1) in
  check_status "first job swept" Job.Swept r0.Job.status;
  check_status "second job swept" Job.Swept r1.Job.status;
  Alcotest.(check int) "first job found nothing to replay" 0 r0.Job.cache_hits;
  Alcotest.(check bool) "first job contributed its counter-examples" true
    (r0.Job.cache_added > 0);
  Alcotest.(check bool) "first job needed the solver" true
    ((flow r0).Cec.sat.Sweeper.disproved > 0);
  Alcotest.(check int) "second job replayed the cached patterns"
    r0.Job.cache_added r1.Job.cache_hits;
  Alcotest.(check int) "replay pre-split the classes: no solver disproofs" 0
    (flow r1).Cec.sat.Sweeper.disproved;
  Alcotest.(check int) "one cache hit, one miss recorded" 1
    (Pattern_cache.hits cache);
  Alcotest.(check int) "one miss recorded" 1 (Pattern_cache.misses cache);
  Alcotest.(check int) "cache retains the patterns" r0.Job.cache_added
    (Pattern_cache.size cache)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_event_stream_shape () =
  let sink, drain = Events.memory () in
  let jobs =
    [
      Job.make ~options:(opts ~guided_iterations:2 ()) ~id:0 ~label:"first"
        (Job.Sweep (Job.Inline (random_net 7 6 40)));
      Job.make ~id:1 ~label:"second"
        (Job.Cec (Job.Inline (and_or_net false), Job.Inline (and_or_net true)));
    ]
  in
  ignore (Pool.run ~workers:1 ~events:sink jobs);
  let events = drain () in
  List.iter
    (fun job ->
      let mine = List.filter (fun e -> e.Events.job = job) events in
      Alcotest.(check bool)
        (Printf.sprintf "job %d has events" job)
        true (mine <> []);
      (match mine with
       | { Events.payload = Events.Queued; _ } :: _ -> ()
       | _ -> Alcotest.failf "job %d: first event is not queued" job);
      (match List.rev mine with
       | { Events.payload = Events.Finished r; _ } :: _ ->
           Alcotest.(check bool)
             (Printf.sprintf "job %d within budget" job)
             true
             (match r.Job.status with
              | Job.Budget_exhausted _ -> false
              | Job.Equivalent | Job.Not_equivalent _ | Job.Inconclusive _
              | Job.Swept | Job.Failed _ ->
                  true);
           Alcotest.(check bool)
             (Printf.sprintf "job %d history in telemetry" job)
             true ((flow r).Cec.cost_history <> [])
       | _ -> Alcotest.failf "job %d: last event is not finished" job);
      Alcotest.(check bool)
        (Printf.sprintf "job %d was started" job)
        true
        (List.exists
           (fun e ->
             match e.Events.payload with Events.Started _ -> true | _ -> false)
           mine))
    [ 0; 1 ];
  (* Timestamps are monotone within the (single-worker) stream. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "timestamps monotone" true
          (a.Events.at <= b.Events.at);
        monotone rest
    | _ -> ()
  in
  monotone events

let test_event_json () =
  let e =
    {
      Events.job = 3;
      label = "he said \"hi\"\\\n";
      at = 0.25;
      payload = Events.Started { worker = 2 };
    }
  in
  let json = Events.to_json e in
  Alcotest.(check string) "escaped JSON"
    "{\"job\":3,\"label\":\"he said \\\"hi\\\"\\\\\\n\",\"at\":0.250000,\"phase\":\"started\",\"worker\":2}"
    json;
  (* The finished event derives its totals from the job's flow report:
     SAT work sums the sweep and the PO phase. *)
  let report =
    {
      Cec.outcome = Cec.Equivalent;
      stopped = false;
      guided = Sweeper.empty_guided;
      sat =
        { Sweeper.empty_sat with calls = 2; conflicts = 5; propagations = 70; restarts = 1 };
      po_calls = 1;
      po_stats = { Solver.zero_stats with conflicts = 3; propagations = 30 };
      final_cost = 4;
      cost_history = [ 9; 4 ];
      total_time = 0.4;
    }
  in
  let result flow =
    {
      Job.spec = Job.make ~id:0 (Job.Sweep (Job.Suite "dec"));
      status = Job.Swept;
      flow;
      cache_hits = 0;
      cache_added = 1;
      worker = 0;
      attempts = 1;
      quarantined = [];
      time = 0.5;
    }
  in
  let finished flow =
    Events.to_json
      { Events.job = 0; label = "j"; at = 1.5; payload = Events.Finished (result flow) }
  in
  Alcotest.(check string) "finished totals"
    "{\"job\":0,\"label\":\"j\",\"at\":1.500000,\"phase\":\"finished\",\"status\":\"swept\",\"budget\":\"ok\",\"final_cost\":4,\"cost_history\":[9,4],\"sat_calls\":3,\"sat_conflicts\":8,\"sat_propagations\":100,\"sat_restarts\":1,\"cache_hits\":0,\"cache_added\":1,\"attempts\":1,\"time\":0.500000}"
    (finished (Some report));
  Alcotest.(check string) "no flow report: zeros"
    "{\"job\":0,\"label\":\"j\",\"at\":1.500000,\"phase\":\"finished\",\"status\":\"swept\",\"budget\":\"ok\",\"final_cost\":0,\"cost_history\":[],\"sat_calls\":0,\"sat_conflicts\":0,\"sat_propagations\":0,\"sat_restarts\":0,\"cache_hits\":0,\"cache_added\":1,\"attempts\":1,\"time\":0.500000}"
    (finished None)

(* ------------------------------------------------------------------ *)
(* Manifest parsing                                                    *)
(* ------------------------------------------------------------------ *)

let test_manifest_parse () =
  let specs =
    Manifest.parse_string
      "# batch regression\n\n\
       cec apex2 apex2 stacked=true deadline=2.5 seed=7 label=stack\n\
       sweep alu4 iterations=3 random=2 max-sat=10 strategy=RevS\n"
  in
  Alcotest.(check int) "two jobs" 2 (List.length specs);
  let j0 = List.nth specs 0 and j1 = List.nth specs 1 in
  Alcotest.(check int) "ids in file order" 0 j0.Job.id;
  Alcotest.(check int) "ids in file order" 1 j1.Job.id;
  Alcotest.(check string) "label" "stack" j0.Job.label;
  Alcotest.(check int) "seed" 7 j0.Job.options.Sweep_options.seed;
  (match j0.Job.kind with
   | Job.Cec (Job.Suite_stacked "apex2", Job.Suite_stacked "apex2") -> ()
   | _ -> Alcotest.fail "stacked=true selects the putontop variant");
  (match j0.Job.limits.Budget.deadline with
   | Some d -> Alcotest.(check (float 1e-9)) "deadline" 2.5 d
   | None -> Alcotest.fail "deadline not parsed");
  (match j1.Job.kind with
   | Job.Sweep (Job.Suite "alu4") -> ()
   | _ -> Alcotest.fail "sweep of a suite benchmark");
  Alcotest.(check int) "guided iterations" 3
    j1.Job.options.Sweep_options.guided_iterations;
  Alcotest.(check int) "random rounds" 2
    j1.Job.options.Sweep_options.random_rounds;
  Alcotest.(check (option int)) "max-sat" (Some 10)
    j1.Job.options.Sweep_options.max_sat_calls;
  Alcotest.(check string) "strategy" "RevS"
    (Simgen_core.Strategy.name j1.Job.options.Sweep_options.strategy)

(* Every key [Manifest.keys] lists parses, and nothing else does. *)
let test_manifest_keys () =
  let sample = function
    | "strategy" -> "revs"
    | "deadline" | "watchdog" | "backoff" -> "1.5"
    | "stacked" | "certify" | "solver-audit" -> "true"
    | "label" -> "x"
    | _ -> "2"
  in
  List.iter
    (fun key ->
      match Manifest.parse_string (Printf.sprintf "sweep dec %s=%s\n" key (sample key)) with
      | [ _ ] -> ()
      | l -> Alcotest.failf "%s: expected one job, got %d" key (List.length l)
      | exception Failure e -> Alcotest.failf "listed key %s does not parse: %s" key e)
    Manifest.keys;
  Alcotest.(check bool) "solver-audit is listed" true (List.mem "solver-audit" Manifest.keys);
  match Manifest.parse_string "sweep dec colour=blue\n" with
  | _ -> Alcotest.fail "an unlisted key parsed"
  | exception Failure _ -> ()

let test_manifest_errors () =
  let fails_with_line msg text =
    match Manifest.parse_string text with
    | _ -> Alcotest.failf "%s: expected a parse failure" msg
    | exception Failure e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error names the line (%s)" msg e)
          true
          (String.length e >= 7 && String.sub e 0 5 = "line ")
  in
  fails_with_line "unknown directive" "prove apex2 apex2\n";
  fails_with_line "missing circuit" "cec apex2\n";
  fails_with_line "bad integer" "sweep apex2 seed=abc\n";
  fails_with_line "unknown option" "sweep apex2 colour=blue\n";
  fails_with_line "removed max-guided" "sweep apex2 max-guided=2\n";
  fails_with_line "removed deadline-ms" "sweep apex2 deadline-ms=5\n";
  fails_with_line "unknown strategy" "sweep apex2 strategy=magic\n";
  fails_with_line "unknown benchmark" "sweep not_a_benchmark_name\n"

let () =
  Alcotest.run "simgen-runner"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "sticky reason" `Quick test_budget_sticky_reason;
          Alcotest.test_case "cancel flag" `Quick test_budget_cancel;
        ] );
      ( "pattern-cache",
        [
          Alcotest.test_case "dedup" `Quick test_cache_dedup;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity;
          Alcotest.test_case "key isolation" `Quick test_cache_key_isolation;
        ] );
      ( "exec",
        [
          Alcotest.test_case "deadline yields a partial result" `Quick
            test_deadline_partial_result;
          Alcotest.test_case "sat-call budget" `Quick test_max_sat_calls_budget;
          Alcotest.test_case "cec equivalent" `Quick test_cec_equivalent;
          Alcotest.test_case "cec counter-example" `Quick
            test_cec_not_equivalent;
          Alcotest.test_case "failure is contained" `Quick
            test_failed_job_is_contained;
        ] );
      ( "pool",
        [
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "seed determinism across workers" `Quick
            test_seed_determinism_across_workers;
          Alcotest.test_case "cache-hit accounting" `Quick
            test_cache_hit_accounting;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "event stream shape" `Quick
            test_event_stream_shape;
          Alcotest.test_case "json serialization" `Quick test_event_json;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "errors" `Quick test_manifest_errors;
          Alcotest.test_case "keys" `Quick test_manifest_keys;
        ] );
    ]
