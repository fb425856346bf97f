module Timer = Simgen_base.Timer
module Shared = Simgen_base.Shared
module Json = Simgen_base.Json

type payload =
  | Queued
  | Started of { worker : int }
  | Lint of { target : string; errors : int; warnings : int; infos : int }
  | Cache_replay of { vectors : int; cost : int }
  | Random_round of { round : int; cost : int }
  | Guided_round of {
      round : int;
      cost : int;
      vectors : int;
      conflicts : int;
      skipped : int;
    }
  | Sat_sweep of {
      calls : int;
      proved : int;
      disproved : int;
      conflicts : int;
      propagations : int;
      restarts : int;
      deleted : int;
      cost : int;
    }
  | Fault of { site : string; count : int }
  | Retry of { attempt : int; delay : float; cause : string }
  | Degrade of {
      unknowns : int;
      escalations : int;
      fresh_fallbacks : int;
      bdd_fallbacks : int;
      session_rebuilds : int;
    }
  | Quarantine of { a : int; b : int }
  | Fun_cache_stats of {
      consults : int;
      hits : int;
      misses : int;
      local_proofs : int;
    }
  | Certificate of {
      queries : int;
      proved : int;
      merges : int;
      steps_checked : int;
      steps_trimmed : int;
      valid : bool;
      time : float;
    }
  | Finished of {
      status : string;
      budget : string;
      final_cost : int;
      cost_history : int list;
      sat_calls : int;
      sat_conflicts : int;
      sat_propagations : int;
      sat_restarts : int;
      cache_hits : int;
      cache_added : int;
      attempts : int;
      time : float;
    }

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
    | Guided_round { round; cost; vectors; conflicts; skipped } ->
        [
          ("round", Int round);
          ("cost", Int cost);
          ("vectors", Int vectors);
          ("conflicts", Int conflicts);
          ("skipped", Int skipped);
        ]
    | Sat_sweep
        { calls; proved; disproved; conflicts; propagations; restarts;
          deleted; cost } ->
        [
          ("calls", Int calls);
          ("proved", Int proved);
          ("disproved", Int disproved);
          ("conflicts", Int conflicts);
          ("propagations", Int propagations);
          ("restarts", Int restarts);
          ("deleted", Int deleted);
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
    | Certificate c ->
        [
          ("queries", Int c.queries);
          ("proved", Int c.proved);
          ("merges", Int c.merges);
          ("steps_checked", Int c.steps_checked);
          ("steps_trimmed", Int c.steps_trimmed);
          ("valid", Bool c.valid);
          ("time", Float c.time);
        ]
    | Finished f ->
        [
          ("status", String f.status);
          ("budget", String f.budget);
          ("final_cost", Int f.final_cost);
          ("cost_history", List (List.map (fun c -> Int c) f.cost_history));
          ("sat_calls", Int f.sat_calls);
          ("sat_conflicts", Int f.sat_conflicts);
          ("sat_propagations", Int f.sat_propagations);
          ("sat_restarts", Int f.sat_restarts);
          ("cache_hits", Int f.cache_hits);
          ("cache_added", Int f.cache_added);
          ("attempts", Int f.attempts);
          ("time", Float f.time);
        ]
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
