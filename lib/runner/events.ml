module Timer = Simgen_base.Timer
module Shared = Simgen_base.Shared

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
(* JSON serialization (hand-rolled: the container has no JSON library, *)
(* and the schema is flat enough that a writer is all we need)         *)
(* ------------------------------------------------------------------ *)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_field buf first name value =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_char buf '"';
  Buffer.add_string buf name;
  Buffer.add_string buf "\":";
  Buffer.add_string buf value

let str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  json_escape buf s;
  Buffer.add_char buf '"';
  Buffer.contents buf

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

let to_json { job; label; at; payload } =
  let buf = Buffer.create 128 in
  let first = ref true in
  let field name value = add_field buf first name value in
  let int_field name v = field name (string_of_int v) in
  let float_field name v = field name (Printf.sprintf "%.6f" v) in
  Buffer.add_char buf '{';
  int_field "job" job;
  field "label" (str label);
  float_field "at" at;
  field "phase" (str (phase_name payload));
  (match payload with
   | Queued -> ()
   | Started { worker } -> int_field "worker" worker
   | Lint { target; errors; warnings; infos } ->
       field "target" (str target);
       int_field "errors" errors;
       int_field "warnings" warnings;
       int_field "infos" infos
   | Cache_replay { vectors; cost } ->
       int_field "vectors" vectors;
       int_field "cost" cost
   | Random_round { round; cost } ->
       int_field "round" round;
       int_field "cost" cost
   | Guided_round { round; cost; vectors; conflicts; skipped } ->
       int_field "round" round;
       int_field "cost" cost;
       int_field "vectors" vectors;
       int_field "conflicts" conflicts;
       int_field "skipped" skipped
   | Sat_sweep
       { calls; proved; disproved; conflicts; propagations; restarts;
         deleted; cost } ->
       int_field "calls" calls;
       int_field "proved" proved;
       int_field "disproved" disproved;
       int_field "conflicts" conflicts;
       int_field "propagations" propagations;
       int_field "restarts" restarts;
       int_field "deleted" deleted;
       int_field "cost" cost
   | Fault { site; count } ->
       field "site" (str site);
       int_field "count" count
   | Retry { attempt; delay; cause } ->
       int_field "attempt" attempt;
       float_field "delay" delay;
       field "cause" (str cause)
   | Degrade d ->
       int_field "unknowns" d.unknowns;
       int_field "escalations" d.escalations;
       int_field "fresh_fallbacks" d.fresh_fallbacks;
       int_field "bdd_fallbacks" d.bdd_fallbacks;
       int_field "session_rebuilds" d.session_rebuilds
   | Quarantine { a; b } ->
       int_field "a" a;
       int_field "b" b
   | Fun_cache_stats s ->
       int_field "consults" s.consults;
       int_field "hits" s.hits;
       int_field "misses" s.misses;
       int_field "local_proofs" s.local_proofs
   | Certificate c ->
       int_field "queries" c.queries;
       int_field "proved" c.proved;
       int_field "merges" c.merges;
       int_field "steps_checked" c.steps_checked;
       int_field "steps_trimmed" c.steps_trimmed;
       field "valid" (if c.valid then "true" else "false");
       float_field "time" c.time
   | Finished f ->
       field "status" (str f.status);
       field "budget" (str f.budget);
       int_field "final_cost" f.final_cost;
       field "cost_history"
         (Printf.sprintf "[%s]"
            (String.concat "," (List.map string_of_int f.cost_history)));
       int_field "sat_calls" f.sat_calls;
       int_field "sat_conflicts" f.sat_conflicts;
       int_field "sat_propagations" f.sat_propagations;
       int_field "sat_restarts" f.sat_restarts;
       int_field "cache_hits" f.cache_hits;
       int_field "cache_added" f.cache_added;
       int_field "attempts" f.attempts;
       float_field "time" f.time);
  Buffer.add_char buf '}';
  Buffer.contents buf

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
