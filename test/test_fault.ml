(* Fault injection and the graceful-degradation ladder.

   Covers the registry itself (deterministic, seedable, one-shot sites),
   the budgeted solver entry point it leans on, each rung of the
   degradation ladder in [Sweeper.verify_pair], the retry supervisor in
   [Exec], and the fault matrix: every registered site, injected one
   shot at a time under three RNG seeds, over a stacked-benchmark CEC —
   the final verdict and merge count must match the fault-free run, and
   nothing may escape as an exception. *)

module Fault = Simgen_fault.Fault
module S = Simgen_sat.Solver
module L = Simgen_sat.Literal
module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Runtime_check = Simgen_base.Runtime_check
module Sweeper = Simgen_sweep.Sweeper
module Sat_session = Simgen_sweep.Sat_session
module Sweep_options = Simgen_sweep.Sweep_options
module Cec = Simgen_sweep.Cec
module Suite = Simgen_benchgen.Suite
module Job = Simgen_runner.Job
module Exec = Simgen_runner.Exec
module Budget = Simgen_runner.Budget
module Retry_policy = Simgen_runner.Retry_policy
module Events = Simgen_runner.Events
module Pattern_cache = Simgen_runner.Pattern_cache
module Manifest = Simgen_runner.Manifest

(* Every test leaves the registry disarmed for the next one. *)
let with_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

(* Job options off the defaults: a seed and a guided-round count. *)
let opts ?(seed = 1) ?(guided_iterations = 20) () =
  { Sweep_options.default with Sweep_options.seed; guided_iterations }

let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)

(* A net with an equal pair (x1,x2) and a distinct pair (x1,y1). *)
let pair_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x1 = N.add_gate net tt_and2 [| a; b |] in
  let x2 = N.add_gate net tt_and2 [| b; a |] in
  let y1 = N.add_gate net tt_or2 [| a; b |] in
  List.iter (N.add_po net) [ x1; x2; y1 ];
  (net, x1, x2, y1)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_sites () =
  Alcotest.(check int) "nine sites" 9 (List.length Fault.sites);
  List.iter
    (fun s ->
      Alcotest.(check bool) ("registered: " ^ s) true (List.mem s Fault.sites))
    [
      "sat-budget"; "session-corrupt"; "parse"; "cache-poison"; "gen-giveup";
      "worker-crash"; "worker-stall"; "conn-drop"; "slow-client";
    ]

let test_disarmed_inert () =
  with_faults (fun () ->
      Alcotest.(check bool) "inactive" false (Fault.enabled ());
      Alcotest.(check bool) "no fire" false (Fault.fire "parse");
      Alcotest.(check int) "no count" 0 (Fault.fired "parse"))

let test_unknown_site_rejected () =
  with_faults (fun () ->
      Alcotest.check_raises "arm" (Invalid_argument "Fault: unknown site nope")
        (fun () -> Fault.arm "nope");
      (try
         ignore (Fault.fire "nope");
         Alcotest.fail "fire accepted an unknown site"
       with Invalid_argument _ -> ()))

let test_arm_once () =
  with_faults (fun () ->
      Fault.arm ~times:1 "parse";
      Alcotest.(check bool) "active" true (Fault.enabled ());
      Alcotest.(check bool) "first shot fires" true (Fault.fire "parse");
      Alcotest.(check bool) "one shot only" false (Fault.fire "parse");
      Alcotest.(check int) "counted once" 1 (Fault.fired "parse"))

let test_seeded_determinism () =
  let draw () =
    Fault.arm ~prob:0.5 ~seed:11 "parse";
    List.init 50 (fun _ -> Fault.fire "parse")
  in
  with_faults (fun () ->
      let first = draw () in
      Fault.reset ();
      let second = draw () in
      Alcotest.(check (list bool)) "same seed, same pattern" first second;
      Alcotest.(check bool) "prob 0.5 fires sometimes" true
        (List.mem true first);
      Alcotest.(check bool) "prob 0.5 skips sometimes" true
        (List.mem false first))

let test_crash_raises () =
  with_faults (fun () ->
      Fault.crash "worker-crash" (* disarmed: no-op *);
      Fault.arm ~times:1 "worker-crash";
      (try
         Fault.crash "worker-crash";
         Alcotest.fail "armed crash did not raise"
       with Fault.Injected site ->
         Alcotest.(check string) "site name" "worker-crash" site))

let test_configure () =
  with_faults (fun () ->
      (match Fault.configure "parse:1.0:3" with
       | Ok () -> ()
       | Error e -> Alcotest.failf "rejected valid spec: %s" e);
      Alcotest.(check bool) "armed via spec" true (Fault.fire "parse");
      Fault.reset ();
      (match Fault.configure "all:1.0:42" with
       | Ok () -> ()
       | Error e -> Alcotest.failf "rejected all: %s" e);
      List.iter
        (fun s ->
          Alcotest.(check bool) ("all armed " ^ s) true (Fault.fire s))
        Fault.sites;
      Fault.reset ();
      (match Fault.configure "bogus" with
       | Error _ -> ()
       | Ok () -> Alcotest.fail "accepted unknown site");
      match Fault.configure "parse:notaprob" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "accepted malformed probability")

let test_log () =
  with_faults (fun () ->
      Fault.arm "parse";
      Fault.arm "worker-crash";
      ignore (Fault.fire "worker-crash");
      ignore (Fault.fire "parse");
      ignore (Fault.fire "parse");
      (* sites order, counts per site *)
      Alcotest.(check (list (pair string int)))
        "log in sites order"
        [ ("parse", 2); ("worker-crash", 1) ]
        (Fault.log ()))

(* ------------------------------------------------------------------ *)
(* Budgeted solving                                                    *)
(* ------------------------------------------------------------------ *)

let php s n m =
  (* n pigeons, m holes *)
  let x = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for p = 0 to n - 1 do
    S.add_clause s (List.init m (fun h -> L.pos x.(p).(h)))
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        S.add_clause s [ L.neg x.(p1).(h); L.neg x.(p2).(h) ]
      done
    done
  done

let test_solve_limited_zero_budget () =
  let s = S.create () in
  php s 3 2;
  Alcotest.(check bool) "immediate unknown" true
    (S.solve_limited ~limits:(S.Limits.conflicts 0) s = S.LUnknown);
  (* The instance survives the refusal and still answers unbudgeted. *)
  Alcotest.(check bool) "resumes to unsat" true (S.solve_limited s = S.LUnsat);
  Alcotest.(check bool) "classic entry agrees" true (S.solve s = S.Unsat)

let test_solve_limited_resume () =
  let s = S.create () in
  php s 5 4;
  (* Climb in small conflict budgets: some rounds must come back unknown
     before the paid-for learned clauses finish the proof. *)
  let unknowns = ref 0 in
  let rec climb guard =
    if guard = 0 then Alcotest.fail "never finished under repeated budgets"
    else
      match S.solve_limited ~limits:(S.Limits.conflicts 3) s with
      | S.LUnknown ->
          incr unknowns;
          climb (guard - 1)
      | S.LUnsat -> ()
      | S.LSat -> Alcotest.fail "php(5,4) is unsat"
  in
  climb 1000;
  Alcotest.(check bool) "at least one budgeted refusal" true (!unknowns > 0)

let test_solve_limited_sat_model () =
  let s = S.create () in
  let v = S.new_var s in
  let w = S.new_var s in
  S.add_clause s [ L.pos v ];
  S.add_clause s [ L.neg v; L.pos w ];
  Alcotest.(check bool) "sat" true (S.solve_limited ~limits:(S.Limits.conflicts 10) s = S.LSat);
  Alcotest.(check bool) "model v" true (S.value s v);
  Alcotest.(check bool) "model w" true (S.value s w)

(* ------------------------------------------------------------------ *)
(* The degradation ladder                                              *)
(* ------------------------------------------------------------------ *)

let ladder_opts =
  { Sweep_options.default with Sweep_options.seed = 5 }

let test_ladder_bdd_rescue () =
  with_faults (fun () ->
      let net, x1, x2, _ = pair_net () in
      let sw = Sweeper.create ladder_opts net in
      (* A zero base budget starves every SAT rung (0 * 4^k = 0), so only
         the BDD rung can decide — and it must, with the right verdict. *)
      let opts = { ladder_opts with Sweep_options.max_conflicts = Some 0 } in
      let verdict, _ = Sweeper.verify_pair opts sw x1 x2 in
      Alcotest.(check bool) "BDD rung decides Equal" true
        (verdict = Sat_session.Equal);
      let d = Sweeper.degrade_stats sw in
      Alcotest.(check int) "session rungs + fresh all refused" 5 d.Sweeper.unknowns;
      Alcotest.(check int) "escalated three times" 3 d.Sweeper.escalations;
      Alcotest.(check int) "fresh fallback" 1 d.Sweeper.fresh_fallbacks;
      Alcotest.(check int) "bdd fallback" 1 d.Sweeper.bdd_fallbacks;
      Alcotest.(check int) "no rebuilds" 0 d.Sweeper.session_rebuilds;
      Alcotest.(check int) "nothing quarantined" 0
        (List.length d.Sweeper.quarantined))

let test_ladder_quarantine () =
  with_faults (fun () ->
      (* The last PO pair of sin mapped into K6 and into K4 LUTs: its BDD
         outgrows the BDD rung's 10,000-node quota. With the SAT rungs
         starved too, every rung gives up and the pair is quarantined
         with verdict Unknown — never merged. *)
      let net, pos1, pos2 =
        Cec.join (Suite.lut_network "sin") (Suite.lut_network ~k:4 "sin")
      in
      let last = Array.length pos1 - 1 in
      let x1 = pos1.(last) and x2 = pos2.(last) in
      let sw = Sweeper.create ladder_opts net in
      let opts = { ladder_opts with Sweep_options.max_conflicts = Some 0 } in
      let verdict, _ = Sweeper.verify_pair opts sw x1 x2 in
      Alcotest.(check bool) "verdict Unknown" true (verdict = Sat_session.Unknown);
      let d = Sweeper.degrade_stats sw in
      Alcotest.(check int) "bdd fallback" 1 d.Sweeper.bdd_fallbacks;
      Alcotest.(check (list (pair int int)))
        "pair quarantined"
        [ (min x1 x2, max x1 x2) ]
        d.Sweeper.quarantined;
      (* Quarantine deduplicates. *)
      let verdict2, _ = Sweeper.verify_pair opts sw x1 x2 in
      Alcotest.(check bool) "still Unknown" true (verdict2 = Sat_session.Unknown);
      Alcotest.(check int) "recorded once" 1
        (List.length (Sweeper.degrade_stats sw).Sweeper.quarantined);
      Alcotest.(check bool) "never merged" true
        (Sweeper.representative sw x2 = x2))

(* Every ladder route, table-driven. A zero base budget starves every
   SAT rung, so each case walks its route to the end: the cut check
   answers first when set (Equal withheld under certify); the session
   steps 0..3 run unless [incremental = false], which starts at the
   fresh rung; the BDD rung follows unless certifying, where the pair
   is quarantined instead. Columns: incremental, certify, fun_cache,
   then the verdict, unknowns, escalations, fresh and BDD fallbacks. *)
let test_ladder_routes () =
  let equal = Sat_session.Equal and unknown = Sat_session.Unknown in
  List.iter
    (fun (incremental, certify, cut, verdict, unknowns, escalations, fresh, bdd)
       ->
      with_faults (fun () ->
          let net, x1, x2, _ = pair_net () in
          let opts =
            {
              ladder_opts with
              Sweep_options.max_conflicts = Some 0;
              incremental;
              certify;
              fun_cache =
                (if cut then Some (Simgen_sweep.Fun_cache.create ()) else None);
            }
          in
          let sw = Sweeper.create opts net in
          let got, _ = Sweeper.verify_pair opts sw x1 x2 in
          let tag =
            Printf.sprintf "incremental=%b certify=%b cut=%b" incremental
              certify cut
          in
          Alcotest.(check bool) (tag ^ ": verdict") true (got = verdict);
          let d = Sweeper.degrade_stats sw in
          Alcotest.(check (list int))
            (tag ^ ": unknowns, escalations, fresh, bdd, rebuilds")
            [ unknowns; escalations; fresh; bdd; 0 ]
            [
              d.Sweeper.unknowns;
              d.Sweeper.escalations;
              d.Sweeper.fresh_fallbacks;
              d.Sweeper.bdd_fallbacks;
              d.Sweeper.session_rebuilds;
            ];
          Alcotest.(check (list (pair int int)))
            (tag ^ ": quarantine")
            (if verdict = unknown then [ (min x1 x2, max x1 x2) ] else [])
            d.Sweeper.quarantined))
    [
      (true, false, false, equal, 5, 3, 1, 1);
      (true, false, true, equal, 0, 0, 0, 0);
      (true, true, false, unknown, 5, 3, 1, 0);
      (true, true, true, unknown, 5, 3, 1, 0);
      (false, false, false, equal, 1, 0, 0, 1);
      (false, false, true, equal, 0, 0, 0, 0);
      (false, true, false, unknown, 1, 0, 0, 0);
      (false, true, true, unknown, 1, 0, 0, 0);
    ]

let test_sat_budget_fault_escalates () =
  with_faults (fun () ->
      let net, x1, x2, _ = pair_net () in
      let sw = Sweeper.create ladder_opts net in
      Fault.arm ~times:1 "sat-budget";
      (* The injected zero budget refuses the first session query; the
         escalation rung (unlimited here) resumes and proves the pair. *)
      let verdict, _ = Sweeper.verify_pair ladder_opts sw x1 x2 in
      Alcotest.(check bool) "escalation recovers Equal" true
        (verdict = Sat_session.Equal);
      let d = Sweeper.degrade_stats sw in
      Alcotest.(check int) "one refusal" 1 d.Sweeper.unknowns;
      Alcotest.(check int) "one escalation" 1 d.Sweeper.escalations;
      Alcotest.(check int) "no bdd" 0 d.Sweeper.bdd_fallbacks;
      Alcotest.(check int) "fault fired" 1 (Fault.fired "sat-budget"))

let test_session_corrupt_rebuild () =
  with_faults (fun () ->
      let net, x1, x2, _ = pair_net () in
      let sw = Sweeper.create ladder_opts net in
      Fault.arm ~times:1 "session-corrupt";
      let verdict, _ = Sweeper.verify_pair ladder_opts sw x1 x2 in
      Alcotest.(check bool) "rebuilt session proves Equal" true
        (verdict = Sat_session.Equal);
      Alcotest.(check int) "one rebuild" 1
        (Sweeper.degrade_stats sw).Sweeper.session_rebuilds)

let test_session_corrupt_repeated_violation_propagates () =
  with_faults (fun () ->
      let net, x1, x2, _ = pair_net () in
      let sw = Sweeper.create ladder_opts net in
      (* Both the query and its rebuild-retry hit the fault: the second
         Violation must propagate — no infinite rebuild loop. *)
      Fault.arm ~times:2 "session-corrupt";
      (try
         ignore (Sweeper.verify_pair ladder_opts sw x1 x2);
         Alcotest.fail "second Violation was swallowed"
       with Runtime_check.Violation msg ->
         Alcotest.(check string) "violation code" "F-session-corrupt"
           (List.hd (String.split_on_char ':' msg))))

let test_gen_giveup_harmless () =
  with_faults (fun () ->
      (* Guided generation giving up on every round only loses pattern
         quality; the CEC verdict must be unaffected. *)
      Fault.arm "gen-giveup";
      let net, _, _, _ = pair_net () in
      let report = Cec.check
        { ladder_opts with Sweep_options.guided_iterations = 4 }
        net (N.copy net) in
      Alcotest.(check bool) "still equivalent" true
        (report.Cec.outcome = Cec.Equivalent))

(* ------------------------------------------------------------------ *)
(* Exec supervisor                                                     *)
(* ------------------------------------------------------------------ *)

let small_sweep_spec ?limits ?retry ~id () =
  Job.make ~options:(opts ~seed:5 ~guided_iterations:2 ()) ?limits ?retry ~id
    (Job.Sweep (Job.Inline (let net, _, _, _ = pair_net () in net)))

let test_violation_surfaces_as_failed () =
  (* Satellite: Exec's "never raises" contract. A Violation the sweeper
     cannot absorb (the fault re-fires on the rebuilt session, again and
     again) must surface as a structured Failed carrying the violation
     code — not escape the pool. *)
  with_faults (fun () ->
      let sink, collect = Events.memory () in
      let good = small_sweep_spec ~id:1 () in
      let bad = small_sweep_spec ~id:0 () in
      (* Unlimited firings: the rebuild retry violates too, so nothing
         inside the sweeper can absorb it. Disarm before the sibling. *)
      Fault.arm "session-corrupt";
      let r = Exec.run ~events:sink ~worker:0 bad in
      Fault.reset ();
      let r2 = Exec.run ~events:sink ~worker:0 good in
      (match r.Job.status with
       | Job.Failed { message; attempts; faults } ->
           Alcotest.(check bool) "message carries the violation"
             true
             (String.length message >= 10
             && String.sub message 0 10 = "violation:");
           Alcotest.(check int) "single attempt (no retry policy)" 1 attempts;
           Alcotest.(check bool) "fault site recorded" true
             (List.mem_assoc "session-corrupt" faults)
       | s ->
           Alcotest.failf "expected Failed, got %s" (Job.status_to_string s));
      Alcotest.(check bool) "sibling unaffected" true (r2.Job.status = Job.Swept);
      let finished =
        List.filter
          (fun e ->
            match e.Events.payload with
            | Events.Finished _ -> true
            | _ -> false)
          (collect ())
      in
      Alcotest.(check int) "one Finished per job" 2 (List.length finished))

let test_worker_crash_retried () =
  with_faults (fun () ->
      Fault.arm ~times:1 "worker-crash";
      let sink, collect = Events.memory () in
      let spec =
        small_sweep_spec ~retry:(Retry_policy.with_attempts 3 Retry_policy.default)
          ~id:0 ()
      in
      let r = Exec.run ~events:sink ~worker:0 spec in
      Alcotest.(check bool) "recovered" true (r.Job.status = Job.Swept);
      Alcotest.(check int) "second attempt succeeded" 2 r.Job.attempts;
      let events = collect () in
      let retries =
        List.filter_map
          (fun e ->
            match e.Events.payload with
            | Events.Retry { attempt; cause; _ } -> Some (attempt, cause)
            | _ -> None)
          events
      in
      Alcotest.(check (list (pair int string)))
        "retry event with the injected cause"
        [ (1, "injected-fault:worker-crash") ]
        retries;
      Alcotest.(check bool) "fault event emitted" true
        (List.exists
           (fun e ->
             match e.Events.payload with
             | Events.Fault { site = "worker-crash"; count } -> count = 1
             | _ -> false)
           events))

let test_worker_crash_exhausts_attempts () =
  with_faults (fun () ->
      Fault.arm "worker-crash";
      let spec =
        small_sweep_spec ~retry:(Retry_policy.with_attempts 2 Retry_policy.default)
          ~id:0 ()
      in
      let r = Exec.run ~events:Events.null ~worker:0 spec in
      match r.Job.status with
      | Job.Failed { message; attempts; faults } ->
          Alcotest.(check string) "last cause" "injected-fault:worker-crash"
            message;
          Alcotest.(check int) "both attempts spent" 2 attempts;
          Alcotest.(check (option int)) "both firings recorded" (Some 2)
            (List.assoc_opt "worker-crash" faults)
      | s -> Alcotest.failf "expected Failed, got %s" (Job.status_to_string s))

let test_watchdog_cuts_stall_and_retries () =
  with_faults (fun () ->
      Fault.arm ~times:1 "worker-stall";
      let sink, collect = Events.memory () in
      let spec =
        small_sweep_spec
          ~limits:{ Budget.unlimited with Budget.watchdog = Some 0.05 }
          ~retry:(Retry_policy.with_attempts 2 Retry_policy.default)
          ~id:0 ()
      in
      let r = Exec.run ~events:sink ~worker:0 spec in
      Alcotest.(check bool) "stall cut off, retry succeeded" true
        (r.Job.status = Job.Swept);
      Alcotest.(check int) "two attempts" 2 r.Job.attempts;
      Alcotest.(check bool) "watchdog named as the retry cause" true
        (List.exists
           (fun e ->
             match e.Events.payload with
             | Events.Retry { cause = "watchdog"; _ } -> true
             | _ -> false)
           (collect ())))

let test_watchdog_exhaustion_is_final () =
  with_faults (fun () ->
      Fault.arm "worker-stall";
      let spec =
        small_sweep_spec
          ~limits:{ Budget.unlimited with Budget.watchdog = Some 0.05 }
          ~id:0 ()
      in
      let r = Exec.run ~events:Events.null ~worker:0 spec in
      Alcotest.(check bool) "watchdog exhaustion" true
        (r.Job.status = Job.Budget_exhausted Budget.Watchdog);
      Alcotest.(check int) "no retry without a policy" 1 r.Job.attempts)

let test_parse_fault_retried () =
  with_faults (fun () ->
      Fault.arm ~times:1 "parse";
      let spec =
        Job.make ~options:(opts ~seed:5 ~guided_iterations:2 ()) ~id:0
          ~retry:(Retry_policy.with_attempts 2 Retry_policy.default)
          (Job.Sweep (Job.Suite "dec"))
      in
      let r = Exec.run ~events:Events.null ~worker:0 spec in
      Alcotest.(check bool) "reload succeeded" true (r.Job.status = Job.Swept);
      Alcotest.(check int) "one retry" 2 r.Job.attempts)

(* ------------------------------------------------------------------ *)
(* Retry policy                                                        *)
(* ------------------------------------------------------------------ *)

let test_retry_policy_delays () =
  let p =
    { Retry_policy.max_attempts = 4; backoff = 0.1; jitter = 0.0 }
  in
  let rng = Rng.create 1 in
  Alcotest.(check (float 1e-9)) "first delay" 0.1
    (Retry_policy.delay p rng ~attempt:1);
  Alcotest.(check (float 1e-9)) "doubles" 0.2 (Retry_policy.delay p rng ~attempt:2);
  Alcotest.(check (float 1e-9)) "doubles again" 0.4
    (Retry_policy.delay p rng ~attempt:3);
  (try
     ignore (Retry_policy.delay p rng ~attempt:0);
     Alcotest.fail "attempt 0 accepted"
   with Invalid_argument _ -> ());
  (* Jitter stays within the documented band and is deterministic. *)
  let j = { p with Retry_policy.jitter = 0.5 } in
  let d1 = Retry_policy.delay j (Rng.create 7) ~attempt:1 in
  let d2 = Retry_policy.delay j (Rng.create 7) ~attempt:1 in
  Alcotest.(check (float 1e-9)) "deterministic in the rng" d1 d2;
  Alcotest.(check bool) "within the band" true (d1 >= 0.05 && d1 <= 0.15)

(* ------------------------------------------------------------------ *)
(* Pattern cache checksums                                             *)
(* ------------------------------------------------------------------ *)

let test_cache_drops_poisoned_entry () =
  with_faults (fun () ->
      let c = Pattern_cache.create () in
      Fault.arm ~times:1 "cache-poison";
      Alcotest.(check bool) "poisoned add accepted" true
        (Pattern_cache.add c [| true; false; true |]);
      (* The corruption happened after the checksum: borrow detects it,
         drops the entry and reports a miss instead of garbage. *)
      Alcotest.(check (list (array bool))) "corrupt entry dropped" []
        (Pattern_cache.borrow c ~npis:3);
      Alcotest.(check int) "dropped counted" 1 (Pattern_cache.dropped c);
      Alcotest.(check int) "no longer stored" 0 (Pattern_cache.size c);
      (* A clean entry flows through; borrowers get a private copy. *)
      Alcotest.(check bool) "clean add" true
        (Pattern_cache.add c [| false; true; false |]);
      (match Pattern_cache.borrow c ~npis:3 with
       | [ v ] ->
           v.(0) <- true (* mutating the borrow must not corrupt the cache *)
       | l -> Alcotest.failf "expected one vector, got %d" (List.length l));
      match Pattern_cache.borrow c ~npis:3 with
      | [ v ] ->
          Alcotest.(check (array bool)) "cache entry intact"
            [| false; true; false |] v
      | l -> Alcotest.failf "expected one vector, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Manifest and events surface                                         *)
(* ------------------------------------------------------------------ *)

let test_manifest_fault_keys () =
  let specs =
    Manifest.parse_string
      "cec dec dec retries=3 backoff=0.2 watchdog=1.5 max-conflicts=100\n"
  in
  match specs with
  | [ spec ] ->
      Alcotest.(check int) "retries" 3 spec.Job.retry.Retry_policy.max_attempts;
      Alcotest.(check (float 1e-9)) "backoff" 0.2
        spec.Job.retry.Retry_policy.backoff;
      Alcotest.(check (option (float 1e-9))) "watchdog" (Some 1.5)
        spec.Job.limits.Budget.watchdog;
      Alcotest.(check (option int)) "max-conflicts" (Some 100)
        spec.Job.options.Sweep_options.max_conflicts
  | l -> Alcotest.failf "expected one spec, got %d" (List.length l)

let test_manifest_defaults_overridable () =
  let defaults =
    {
      Manifest.default_options with
      Manifest.retry = Retry_policy.with_attempts 5 Retry_policy.default;
      sweep = { Sweep_options.default with Sweep_options.max_conflicts = Some 9 };
    }
  in
  match Manifest.parse_string ~defaults "sweep dec\nsweep dec retries=2\n" with
  | [ a; b ] ->
      Alcotest.(check int) "baseline from defaults" 5
        a.Job.retry.Retry_policy.max_attempts;
      Alcotest.(check (option int)) "conflicts from defaults" (Some 9)
        a.Job.options.Sweep_options.max_conflicts;
      Alcotest.(check int) "per-line override wins" 2
        b.Job.retry.Retry_policy.max_attempts
  | l -> Alcotest.failf "expected two specs, got %d" (List.length l)

let test_event_json_fault_phases () =
  let json payload =
    Events.to_json { Events.job = 0; label = "j"; at = 0.0; payload }
  in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fault phase" true
    (contains "\"phase\":\"fault\""
       (json (Events.Fault { site = "parse"; count = 2 })));
  Alcotest.(check bool) "retry phase" true
    (contains "\"phase\":\"retry\""
       (json (Events.Retry { attempt = 1; delay = 0.1; cause = "watchdog" })));
  Alcotest.(check bool) "degrade phase" true
    (contains "\"phase\":\"degrade\""
       (json
          (Events.Degrade
             { Sweeper.empty_degrade with unknowns = 1; escalations = 2 })));
  Alcotest.(check bool) "quarantine phase" true
    (contains "\"phase\":\"quarantine\""
       (json (Events.Quarantine { a = 3; b = 9 })))

(* ------------------------------------------------------------------ *)
(* Fault matrix                                                        *)
(* ------------------------------------------------------------------ *)

let matrix_spec () =
  Job.make ~options:(opts ~seed:3 ~guided_iterations:3 ()) ~id:0
    ~limits:{ Budget.unlimited with Budget.watchdog = Some 0.25 }
    ~retry:(Retry_policy.with_attempts 3 Retry_policy.default)
    (Job.Cec (Job.Suite_stacked "dec", Job.Suite_stacked "dec"))

let run_matrix_job () =
  let cache = Pattern_cache.create () in
  Exec.run ~cache ~events:Events.null ~worker:0 (matrix_spec ())

let merges (r : Job.result) =
  match r.Job.flow with Some f -> f.Cec.sat.Sweeper.proved | None -> 0

let test_fault_matrix () =
  (* Every registered site, injected one shot at a time under three RNG
     seeds, over a stacked-benchmark CEC. The supervisor, ladder and
     cache checksums must deliver the exact fault-free verdict and merge
     count — degradation may cost attempts or rungs, never the answer. *)
  with_faults (fun () ->
      let baseline = run_matrix_job () in
      let base_status = Job.status_to_string baseline.Job.status in
      let base_proved = merges baseline in
      Alcotest.(check string) "fault-free run is conclusive" "equivalent"
        base_status;
      List.iter
        (fun site ->
          List.iter
            (fun seed ->
              Fault.reset ();
              Fault.arm ~times:1 ~seed site;
              let r = run_matrix_job () in
              Fault.reset ();
              let tag = Printf.sprintf "%s/seed%d" site seed in
              Alcotest.(check string) (tag ^ ": verdict") base_status
                (Job.status_to_string r.Job.status);
              Alcotest.(check int) (tag ^ ": merge count") base_proved
                (merges r))
            [ 1; 2; 3 ])
        Fault.sites)

let () =
  Alcotest.run "simgen-fault"
    [
      ( "registry",
        [
          Alcotest.test_case "sites" `Quick test_sites;
          Alcotest.test_case "disarmed inert" `Quick test_disarmed_inert;
          Alcotest.test_case "unknown site" `Quick test_unknown_site_rejected;
          Alcotest.test_case "one-shot arm" `Quick test_arm_once;
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
          Alcotest.test_case "crash raises" `Quick test_crash_raises;
          Alcotest.test_case "configure" `Quick test_configure;
          Alcotest.test_case "log" `Quick test_log;
        ] );
      ( "solve-limited",
        [
          Alcotest.test_case "zero budget" `Quick test_solve_limited_zero_budget;
          Alcotest.test_case "resume" `Quick test_solve_limited_resume;
          Alcotest.test_case "sat model" `Quick test_solve_limited_sat_model;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "bdd rescue" `Quick test_ladder_bdd_rescue;
          Alcotest.test_case "quarantine" `Quick test_ladder_quarantine;
          Alcotest.test_case "routes" `Quick test_ladder_routes;
          Alcotest.test_case "sat-budget fault" `Quick
            test_sat_budget_fault_escalates;
          Alcotest.test_case "session rebuild" `Quick test_session_corrupt_rebuild;
          Alcotest.test_case "repeated violation" `Quick
            test_session_corrupt_repeated_violation_propagates;
          Alcotest.test_case "gen-giveup harmless" `Quick test_gen_giveup_harmless;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "violation surfaces" `Quick
            test_violation_surfaces_as_failed;
          Alcotest.test_case "crash retried" `Quick test_worker_crash_retried;
          Alcotest.test_case "attempts exhausted" `Quick
            test_worker_crash_exhausts_attempts;
          Alcotest.test_case "watchdog retry" `Quick
            test_watchdog_cuts_stall_and_retries;
          Alcotest.test_case "watchdog final" `Quick
            test_watchdog_exhaustion_is_final;
          Alcotest.test_case "parse retried" `Quick test_parse_fault_retried;
          Alcotest.test_case "retry policy" `Quick test_retry_policy_delays;
        ] );
      ( "cache",
        [
          Alcotest.test_case "checksum drop" `Quick test_cache_drops_poisoned_entry;
        ] );
      ( "surface",
        [
          Alcotest.test_case "manifest keys" `Quick test_manifest_fault_keys;
          Alcotest.test_case "manifest defaults" `Quick
            test_manifest_defaults_overridable;
          Alcotest.test_case "event json" `Quick test_event_json_fault_phases;
        ] );
      ( "matrix",
        [ Alcotest.test_case "all sites x 3 seeds" `Slow test_fault_matrix ] );
    ]
