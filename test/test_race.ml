(* The concurrency sanitizer tier: seeded races the vector-clock
   detector must flag, clean patterns it must not, mutex-misuse and
   spawn/join-protocol diagnostics over synthetic traces, the trace file
   round-trip, and the no-false-positive sweep over real stacked batch
   and in-process serve runs.

   The seeded races are detected by happens-before, not by observed
   interleaving: two unsynchronized domains have no ordering edge, so
   the race is flagged deterministically even if the scheduler happens
   to run them back to back. *)

module Shared = Simgen_base.Shared
module Srcloc = Simgen_base.Srcloc
module Race = Simgen_check.Race_check
module D = Simgen_check.Diagnostic
module Runner = Simgen_runner
module Job = Runner.Job
module Pool = Runner.Pool
module Events = Runner.Events
module Manifest = Runner.Manifest
module Pattern_cache = Runner.Pattern_cache
module Protocol = Simgen_serve.Protocol
module Server = Simgen_serve.Server

(* Run [f] with recording armed over a clean trace; return the
   quiescent snapshot. *)
let recorded f =
  Shared.disarm ();
  Shared.reset_trace ();
  Shared.arm ();
  Fun.protect ~finally:(fun () -> Shared.disarm ()) f;
  let trace = Shared.snapshot () in
  Shared.reset_trace ();
  trace

let serious diags =
  List.filter (fun (d : D.t) -> d.D.severity <> D.Info) diags

let codes diags =
  List.sort_uniq compare (List.map (fun (d : D.t) -> d.D.code) diags)

let in_this_file (d : D.t) =
  match d.D.loc with
  | D.Src { Srcloc.file = Some f; _ } -> Filename.basename f = "test_race.ml"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Seeded races                                                        *)
(* ------------------------------------------------------------------ *)

let test_unguarded_counter () =
  let trace =
    recorded (fun () ->
        let c =
          Shared.Cell.make ~loc:(Shared.here __POS__) "test.race.counter" 0
        in
        let bump () =
          for _ = 1 to 5 do
            Shared.Cell.incr ~at:(Shared.here __POS__) c
          done
        in
        let d1 = Shared.spawn bump in
        let d2 = Shared.spawn bump in
        Shared.join d1;
        Shared.join d2)
  in
  let bad = serious (Race.analyze trace) in
  Alcotest.(check bool) "unguarded increment flagged" true (bad <> []);
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check bool)
        ("race code, got " ^ d.D.code)
        true
        (List.mem d.D.code [ "T001"; "T002" ]);
      Alcotest.(check bool)
        "location points into this test" true (in_this_file d))
    bad

let test_cache_insert_outside_mutex () =
  (* The pattern-cache discipline, violated: one domain mutates the
     "table" under its lock, the other inserts without taking it. *)
  let trace =
    recorded (fun () ->
        let loc = Shared.here __POS__ in
        let m = Shared.Mutex.create ~loc "test.race.cache-lock" in
        let table = Shared.Cell.make ~loc "test.race.cache-table" 0 in
        let locked_insert () =
          Shared.Mutex.with_lock m (fun () ->
              Shared.Cell.incr ~at:(Shared.here __POS__) table)
        in
        let rogue_insert () =
          Shared.Cell.incr ~at:(Shared.here __POS__) table
        in
        let d1 = Shared.spawn locked_insert in
        let d2 = Shared.spawn rogue_insert in
        Shared.join d1;
        Shared.join d2)
  in
  let bad = serious (Race.analyze trace) in
  Alcotest.(check bool) "insert outside mutex flagged" true (bad <> []);
  Alcotest.(check bool)
    "classified as inconsistent discipline (T003)" true
    (List.mem "T003" (codes bad))

let test_queue_pop_without_lock () =
  let trace =
    recorded (fun () ->
        let loc = Shared.here __POS__ in
        let qm = Shared.Mutex.create ~loc "test.race.queue-lock" in
        let depth = Shared.Cell.make ~loc "test.race.queue-depth" 0 in
        let producer () =
          for _ = 1 to 3 do
            Shared.Mutex.with_lock qm (fun () ->
                Shared.Cell.incr ~at:(Shared.here __POS__) depth)
          done
        in
        (* pops without taking the condition's mutex *)
        let consumer () =
          for _ = 1 to 3 do
            Shared.Cell.add ~at:(Shared.here __POS__) depth (-1)
          done
        in
        let d1 = Shared.spawn producer in
        let d2 = Shared.spawn consumer in
        Shared.join d1;
        Shared.join d2)
  in
  let bad = serious (Race.analyze trace) in
  Alcotest.(check bool) "unlocked pop flagged" true (bad <> []);
  Alcotest.(check bool)
    "guard named (T003)" true
    (List.mem "T003" (codes bad))

(* ------------------------------------------------------------------ *)
(* Clean patterns: no false positives                                  *)
(* ------------------------------------------------------------------ *)

let test_guarded_counter_clean () =
  let trace =
    recorded (fun () ->
        let loc = Shared.here __POS__ in
        let m = Shared.Mutex.create ~loc "test.clean.lock" in
        let c = Shared.Cell.make ~loc "test.clean.counter" 0 in
        let bump () =
          for _ = 1 to 5 do
            Shared.Mutex.with_lock m (fun () ->
                Shared.Cell.incr ~at:(Shared.here __POS__) c)
          done
        in
        let d1 = Shared.spawn bump in
        let d2 = Shared.spawn bump in
        Shared.join d1;
        Shared.join d2)
  in
  Alcotest.(check (list string))
    "guarded counter clean" [] (codes (serious (Race.analyze trace)))

let test_atomic_counter_clean () =
  let trace =
    recorded (fun () ->
        let a =
          Shared.Atomic.make ~loc:(Shared.here __POS__) "test.clean.atomic" 0
        in
        let bump () =
          for _ = 1 to 5 do
            Shared.Atomic.incr a
          done
        in
        let d1 = Shared.spawn bump in
        let d2 = Shared.spawn bump in
        Shared.join d1;
        Shared.join d2)
  in
  Alcotest.(check (list string))
    "atomic counter clean" [] (codes (serious (Race.analyze trace)))

let test_spawn_join_publication_clean () =
  (* Parent writes, child reads/writes, parent reads after join: every
     pair ordered by the spawn/join edges alone. *)
  let trace =
    recorded (fun () ->
        let c =
          Shared.Cell.make ~loc:(Shared.here __POS__) "test.clean.published" 0
        in
        Shared.Cell.set ~at:(Shared.here __POS__) c 1;
        let d =
          Shared.spawn (fun () ->
              let v = Shared.Cell.get ~at:(Shared.here __POS__) c in
              Shared.Cell.set ~at:(Shared.here __POS__) c (v + 1))
        in
        Shared.join d;
        ignore (Shared.Cell.get ~at:(Shared.here __POS__) c))
  in
  Alcotest.(check (list string))
    "spawn/join publication clean" [] (codes (serious (Race.analyze trace)))

let test_condition_handoff_clean () =
  (* Producer/consumer over a condition variable: the consumer's wait
     releases and re-acquires the mutex, so the producer's write is
     ordered before the consumer's read. *)
  let trace =
    recorded (fun () ->
        let loc = Shared.here __POS__ in
        let m = Shared.Mutex.create ~loc "test.clean.cond-lock" in
        let cond = Shared.Condition.create () in
        let slot = Shared.Cell.make ~loc "test.clean.cond-slot" None in
        let consumer =
          Shared.spawn (fun () ->
              Shared.Mutex.with_lock m (fun () ->
                  let rec wait () =
                    match Shared.Cell.get ~at:(Shared.here __POS__) slot with
                    | Some v -> v
                    | None ->
                        Shared.Condition.wait cond m;
                        wait ()
                  in
                  ignore (wait ())))
        in
        Shared.Mutex.with_lock m (fun () ->
            Shared.Cell.set ~at:(Shared.here __POS__) slot (Some 42);
            Shared.Condition.signal cond);
        Shared.join consumer)
  in
  Alcotest.(check (list string))
    "condition handoff clean" [] (codes (serious (Race.analyze trace)))

(* ------------------------------------------------------------------ *)
(* Mutex misuse and protocol diagnostics over synthetic traces         *)
(* ------------------------------------------------------------------ *)

let obj ?(kind = Shared.Kmutex) oid name =
  {
    Shared.oid;
    okind = kind;
    oname = name;
    oloc = Srcloc.make ~file:"synthetic.ml" ~line:oid ();
  }

let ev seq domain op o =
  { Shared.seq; domain; op; obj = o; at = Srcloc.none }

let analyze_events objects events =
  Race.analyze { Shared.objects; events }

let test_unlock_not_held () =
  let diags =
    analyze_events
      [ obj 0 "m" ]
      [ ev 0 0 Shared.Acquire 0; ev 1 0 Shared.Release 0;
        ev 2 0 Shared.Release 0 ]
  in
  Alcotest.(check (list string)) "double release" [ "T004" ] (codes diags)

let test_reacquire_by_holder () =
  let diags =
    analyze_events
      [ obj 0 "m" ]
      [ ev 0 0 Shared.Acquire 0; ev 1 0 Shared.Acquire 0 ]
  in
  Alcotest.(check bool)
    "self-deadlock flagged" true
    (List.mem "T005" (codes diags))

let test_held_at_end () =
  let diags =
    analyze_events [ obj 0 "m" ] [ ev 0 0 Shared.Acquire 0 ]
  in
  Alcotest.(check (list string)) "held at end" [ "T006" ] (codes diags)

let test_prearm_release_ignored () =
  (* A release on a mutex the trace never saw acquired is the pre-arm
     balance case, not a bug. *)
  let diags = analyze_events [ obj 0 "m" ] [ ev 0 0 Shared.Release 0 ] in
  Alcotest.(check (list string)) "pre-arm release ignored" [] (codes diags)

let test_spawn_protocol_violations () =
  let tok = obj ~kind:Shared.Ktoken 0 "domain" in
  let begin_only =
    analyze_events [ tok ] [ ev 0 1 Shared.Begin 0 ]
  in
  Alcotest.(check (list string))
    "begin without spawn" [ "T007" ] (codes begin_only);
  let join_only = analyze_events [ tok ] [ ev 0 0 Shared.Join 0 ] in
  Alcotest.(check (list string))
    "join without end" [ "T007" ] (codes join_only)

(* ------------------------------------------------------------------ *)
(* Trace persistence                                                   *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "simgen-tsan" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let diag_key (d : D.t) = (d.D.code, d.D.severity, d.D.message)

let test_trace_round_trip () =
  let trace =
    recorded (fun () ->
        let loc = Shared.here __POS__ in
        let m = Shared.Mutex.create ~loc "test.rt.lock" in
        let c = Shared.Cell.make ~loc "test.rt.cell" 0 in
        let guarded () =
          Shared.Mutex.with_lock m (fun () ->
              Shared.Cell.incr ~at:(Shared.here __POS__) c)
        in
        let rogue () = Shared.Cell.incr ~at:(Shared.here __POS__) c in
        let d1 = Shared.spawn guarded in
        let d2 = Shared.spawn rogue in
        Shared.join d1;
        Shared.join d2)
  in
  let direct = Race.analyze trace in
  Alcotest.(check bool) "seeded race present" true (serious direct <> []);
  with_temp_file (fun path ->
      Shared.write_trace trace path;
      match Race.file path with
      | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
      | Ok replayed ->
          Alcotest.(check int)
            "same diagnostic count" (List.length direct)
            (List.length replayed);
          List.iter2
            (fun a b ->
              Alcotest.(check bool)
                ("identical diagnostic: " ^ a.D.message)
                true
                (diag_key a = diag_key b))
            direct replayed)

let test_corrupt_trace_degrades () =
  let trace =
    recorded (fun () ->
        let c =
          Shared.Cell.make ~loc:(Shared.here __POS__) "test.corrupt.cell" 0
        in
        Shared.Cell.set ~at:(Shared.here __POS__) c 1)
  in
  with_temp_file (fun path ->
      Shared.write_trace trace path;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "e not-a-number 0 wr 0 - 0\n";
      output_string oc "utter garbage\n";
      close_out oc;
      match Race.file path with
      | Error msg -> Alcotest.fail ("corrupt lines must not be fatal: " ^ msg)
      | Ok diags ->
          let parse_diags =
            List.filter (fun (d : D.t) -> d.D.code = "P001") diags
          in
          Alcotest.(check int) "one P001 per corrupt line" 2
            (List.length parse_diags);
          List.iter
            (fun (d : D.t) ->
              match d.D.loc with
              | D.Src { Srcloc.file = Some f; line = Some l } ->
                  Alcotest.(check string) "located in the trace file" path f;
                  Alcotest.(check bool) "past the valid lines" true (l >= 2)
              | _ -> Alcotest.fail "P001 must carry a file:line location")
            parse_diags;
          Alcotest.(check int) "parse findings force exit 1" 1
            (Race.exit_code diags))

let test_bad_header_is_error () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      match Race.file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign header must be a hard error")

let test_exit_codes () =
  Alcotest.(check int) "empty is clean" 0 (Race.exit_code []);
  Alcotest.(check int) "info-only is clean" 0
    (Race.exit_code [ D.info "T008" "note" ]);
  Alcotest.(check int) "warnings exit 1" 1
    (Race.exit_code [ D.warn "T006" "held" ]);
  Alcotest.(check int) "errors exit 1" 1
    (Race.exit_code [ D.error "T001" "race" ])

(* ------------------------------------------------------------------ *)
(* No-false-positive sweep: real stacked batch + in-process serve      *)
(* ------------------------------------------------------------------ *)

let test_stacked_batch_race_clean () =
  let jobs =
    Manifest.parse_lines
      (List.concat_map
         (fun seed ->
           [ Printf.sprintf "cec dec dec stacked=true seed=%d" seed ])
         [ 1; 2; 3 ])
  in
  let cache = Pattern_cache.create () in
  let sink, _events = Events.memory () in
  let trace =
    recorded (fun () ->
        let report = Pool.run ~workers:3 ~events:sink ~cache jobs in
        Array.iter
          (fun (r : Job.result) ->
            match r.Job.status with
            | Job.Equivalent -> ()
            | s ->
                Alcotest.failf "job %s not equivalent: %s" r.Job.spec.Job.label
                  (Job.status_to_string s))
          report.Pool.results)
  in
  Alcotest.(check bool) "events recorded" true (trace.Shared.events <> []);
  Alcotest.(check (list string))
    "stacked batch race-clean across 3 seeds" []
    (codes (serious (Race.analyze trace)))

let test_serve_race_clean () =
  let server =
    Server.create ~workers:1 ~pattern_cache:(Pattern_cache.create ()) ()
  in
  let trace =
    recorded (fun () ->
        List.iter
          (fun seed ->
            let args = Printf.sprintf "dec dec seed=%d" seed in
            match Server.handle server (Protocol.Job { cmd = "cec"; args; deadline_ms = None }) with
            | Protocol.Result _ -> ()
            | Protocol.Failed msg -> Alcotest.fail ("serve job failed: " ^ msg)
            | Protocol.Event _ -> Alcotest.fail "unexpected event frame"
            | Protocol.Overloaded _ -> Alcotest.fail "unexpected overload frame")
          [ 1; 2; 3 ];
        match Server.handle server Protocol.Stats with
        | Protocol.Result _ -> ()
        | Protocol.Failed msg -> Alcotest.fail ("stats failed: " ^ msg)
        | Protocol.Event _ -> Alcotest.fail "unexpected event frame"
            | Protocol.Overloaded _ -> Alcotest.fail "unexpected overload frame")
  in
  Alcotest.(check bool) "events recorded" true (trace.Shared.events <> []);
  Alcotest.(check (list string))
    "in-process serve race-clean" []
    (codes (serious (Race.analyze trace)))

let () =
  Alcotest.run "simgen-race"
    [
      ( "seeded",
        [
          Alcotest.test_case "unguarded counter" `Quick test_unguarded_counter;
          Alcotest.test_case "cache insert outside mutex" `Quick
            test_cache_insert_outside_mutex;
          Alcotest.test_case "queue pop without lock" `Quick
            test_queue_pop_without_lock;
        ] );
      ( "clean",
        [
          Alcotest.test_case "guarded counter" `Quick
            test_guarded_counter_clean;
          Alcotest.test_case "atomic counter" `Quick test_atomic_counter_clean;
          Alcotest.test_case "spawn/join publication" `Quick
            test_spawn_join_publication_clean;
          Alcotest.test_case "condition handoff" `Quick
            test_condition_handoff_clean;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "unlock not held" `Quick test_unlock_not_held;
          Alcotest.test_case "re-acquire by holder" `Quick
            test_reacquire_by_holder;
          Alcotest.test_case "held at end" `Quick test_held_at_end;
          Alcotest.test_case "pre-arm release" `Quick
            test_prearm_release_ignored;
          Alcotest.test_case "spawn protocol" `Quick
            test_spawn_protocol_violations;
        ] );
      ( "trace",
        [
          Alcotest.test_case "round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "corrupt lines degrade" `Quick
            test_corrupt_trace_degrades;
          Alcotest.test_case "bad header" `Quick test_bad_header_is_error;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "stacked batch clean" `Slow
            test_stacked_batch_race_clean;
          Alcotest.test_case "serve clean" `Quick test_serve_race_clean;
        ] );
    ]
