module Timer = Simgen_base.Timer
module Shared = Simgen_base.Shared
module Json = Simgen_base.Json
module Sweeper = Simgen_sweep.Sweeper
module Fun_cache = Simgen_sweep.Fun_cache
module Certificate = Simgen_check.Certificate

type payload =
  | Queued
  | Started of { worker : int }
  | Lint of { target : string; errors : int; warnings : int; infos : int }
  | Cache_replay of { vectors : int; cost : int }
  | Random_round of { round : int; cost : int }
  | Guided_round of { round : int; cost : int; delta : Sweeper.guided_stats }
  | Sat_sweep of { stats : Sweeper.sat_stats; cost : int }
  | Fault of { site : string; count : int }
  | Retry of { attempt : int; delay : float; cause : string }
  | Degrade of Sweeper.degrade_stats
  | Quarantine of { a : int; b : int }
  | Fun_cache_stats of Fun_cache.stats
  | Certificate of { report : Certificate.report; time : float }
  | Finished of Job.result

type event = { job : int; label : string; at : float; payload : payload }

(* ------------------------------------------------------------------ *)
(* JSON serialization                                                  *)
(* ------------------------------------------------------------------ *)

let phase_name = function
  | Queued -> "queued"
  | Started _ -> "started"
  | Lint _ -> "lint"
  | Cache_replay _ -> "cache-replay"
  | Random_round _ -> "random-round"
  | Guided_round _ -> "guided-round"
  | Sat_sweep _ -> "sat-sweep"
  | Fault _ -> "fault"
  | Retry _ -> "retry"
  | Degrade _ -> "degrade"
  | Quarantine _ -> "quarantine"
  | Fun_cache_stats _ -> "fun-cache"
  | Certificate _ -> "certificate"
  | Finished _ -> "finished"

(* The job's totals: SAT work sums the sweep and the PO phase; a job
   whose attempts never reached the flow reports zeros. *)
let finished_fields (r : Job.result) =
  let open Json in
  let budget =
    match r.status with
    | Job.Budget_exhausted reason -> Budget.reason_to_string reason
    | Job.Swept | Job.Equivalent | Job.Not_equivalent _ | Job.Inconclusive _
    | Job.Failed _ ->
        "ok"
  in
  let cost, history, (calls, conflicts, propagations, restarts) =
    match r.flow with
    | None -> (0, [], (0, 0, 0, 0))
    | Some f ->
        let s = f.sat and po = f.po_stats in
        ( f.final_cost,
          f.cost_history,
          ( s.calls + f.po_calls,
            s.conflicts + po.conflicts,
            s.propagations + po.propagations,
            s.restarts + po.restarts ) )
  in
  [
    ("status", String (Job.status_to_string r.status));
    ("budget", String budget);
    ("final_cost", Int cost);
    ("cost_history", List (List.map (fun c -> Int c) history));
    ("sat_calls", Int calls);
    ("sat_conflicts", Int conflicts);
    ("sat_propagations", Int propagations);
    ("sat_restarts", Int restarts);
    ("cache_hits", Int r.cache_hits);
    ("cache_added", Int r.cache_added);
    ("attempts", Int r.attempts);
    ("time", Float r.time);
  ]

let json { job; label; at; payload } =
  let open Json in
  let fields =
    match payload with
    | Queued -> []
    | Started { worker } -> [ ("worker", Int worker) ]
    | Lint { target; errors; warnings; infos } ->
        [
          ("target", String target);
          ("errors", Int errors);
          ("warnings", Int warnings);
          ("infos", Int infos);
        ]
    | Cache_replay { vectors; cost } ->
        [ ("vectors", Int vectors); ("cost", Int cost) ]
    | Random_round { round; cost } -> [ ("round", Int round); ("cost", Int cost) ]
    | Guided_round { round; cost; delta = d } ->
        [
          ("round", Int round);
          ("cost", Int cost);
          ("vectors", Int d.vectors);
          ("conflicts", Int d.gen_conflicts);
          ("skipped", Int d.skipped);
        ]
    | Sat_sweep { stats = s; cost } ->
        [
          ("calls", Int s.calls);
          ("proved", Int s.proved);
          ("disproved", Int s.disproved);
          ("conflicts", Int s.conflicts);
          ("propagations", Int s.propagations);
          ("restarts", Int s.restarts);
          ("deleted", Int s.deleted);
          ("cost", Int cost);
        ]
    | Fault { site; count } -> [ ("site", String site); ("count", Int count) ]
    | Retry { attempt; delay; cause } ->
        [ ("attempt", Int attempt); ("delay", Float delay); ("cause", String cause) ]
    | Degrade d ->
        [
          ("unknowns", Int d.unknowns);
          ("escalations", Int d.escalations);
          ("fresh_fallbacks", Int d.fresh_fallbacks);
          ("bdd_fallbacks", Int d.bdd_fallbacks);
          ("session_rebuilds", Int d.session_rebuilds);
        ]
    | Quarantine { a; b } -> [ ("a", Int a); ("b", Int b) ]
    | Fun_cache_stats s ->
        [
          ("consults", Int s.consults);
          ("hits", Int s.hits);
          ("misses", Int s.misses);
          ("local_proofs", Int s.local_proofs);
        ]
    | Certificate { report = c; time } ->
        [
          ("queries", Int c.queries);
          ("proved", Int c.proved);
          ("merges", Int c.merges);
          ("steps_checked", Int c.steps_checked);
          ("steps_trimmed", Int c.steps_trimmed);
          ("valid", Bool c.valid);
          ("time", Float time);
        ]
    | Finished r -> finished_fields r
  in
  Obj
    (("job", Int job)
    :: ("label", String label)
    :: ("at", Float at)
    :: ("phase", String (phase_name payload))
    :: fields)

let to_json e = Json.to_string (json e)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Every sink carries the batch's epoch (event timestamps are relative to
   sink creation) and a mutex: workers on different domains emit
   concurrently. *)
type sink = { epoch : float; write : event -> unit; mutex : Shared.Mutex.t }

let protect mutex f = Shared.Mutex.with_lock mutex f

let mk_mutex () =
  Shared.Mutex.create ~loc:(Shared.here __POS__) "runner.events.sink-lock"

let null = { epoch = 0.0; write = (fun _ -> ()); mutex = mk_mutex () }

let memory () =
  let events =
    Shared.Cell.make ~loc:(Shared.here __POS__) "runner.events.memory" []
  in
  let mutex = mk_mutex () in
  let sink =
    {
      epoch = Timer.now ();
      write = (fun e -> Shared.Cell.update ~at:(Shared.here __POS__) events
                  (fun evs -> e :: evs));
      mutex;
    }
  in
  ( sink,
    fun () ->
      protect mutex (fun () ->
          List.rev (Shared.Cell.get ~at:(Shared.here __POS__) events)) )

let callback f = { epoch = Timer.now (); write = f; mutex = mk_mutex () }

let channel oc =
  {
    epoch = Timer.now ();
    write =
      (fun e ->
        output_string oc (to_json e);
        output_char oc '\n';
        flush oc);
    mutex = mk_mutex ();
  }

let emit sink ~job ~label payload =
  let e = { job; label; at = Timer.now () -. sink.epoch; payload } in
  protect sink.mutex (fun () -> sink.write e)
