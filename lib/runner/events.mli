(** Structured runner telemetry.

    One event per job phase, serialized as one JSON object per line
    (JSONL). Every event carries the job id, its label, and a timestamp
    relative to the sink's creation; the payload fields depend on the
    phase (see the README for the full schema). Sinks are thread-safe —
    workers on different domains emit concurrently. *)

type payload =
  | Queued
  | Started of { worker : int }
  | Lint of { target : string; errors : int; warnings : int; infos : int }
      (** pre-flight [simgen_check] lint of a loaded input network; a job
          with lint errors fails before burning any budget *)
  | Cache_replay of { vectors : int; cost : int }
      (** shared patterns replayed before any generation *)
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
      conflicts : int;  (** solver conflict delta attributable to the sweep *)
      propagations : int;  (** solver propagation delta for the sweep *)
      restarts : int;  (** solver restart delta for the sweep *)
      deleted : int;
          (** clauses physically deleted during the sweep: learnt-clause
              reductions plus session GC retractions *)
      cost : int;
    }
  | Fault of { site : string; count : int }
      (** an armed {!Simgen_fault.Fault} site fired [count] times during
          the attempt just finished *)
  | Retry of { attempt : int; delay : float; cause : string }
      (** attempt [attempt] failed on a retryable [cause]; the supervisor
          sleeps [delay] seconds and re-runs the job *)
  | Degrade of {
      unknowns : int;
      escalations : int;
      fresh_fallbacks : int;
      bdd_fallbacks : int;
      session_rebuilds : int;
    }
      (** what the degradation ladder had to do
          ({!Simgen_sweep.Sweeper.degrade_stats}); emitted only when
          non-zero *)
  | Quarantine of { a : int; b : int }
      (** a candidate pair every ladder rung gave up on — reported, never
          merged *)
  | Fun_cache_stats of {
      consults : int;
      hits : int;
      misses : int;
      local_proofs : int;
    }
      (** per-job counters of the cut-local check
          ({!Simgen_sweep.Fun_cache}); emitted only when the check was
          attached to the job *)
  | Certificate of {
      queries : int;
      proved : int;
      merges : int;
      steps_checked : int;
      steps_trimmed : int;
      valid : bool;
      time : float;
    }
      (** the whole-sweep certificate of a [certify] job was replayed by
          the independent checker ({!Simgen_check.Certificate.check});
          [valid = false] fails the job *)
  | Finished of {
      status : string;  (** {!Job.status_to_string} *)
      budget : string;  (** ["ok"] or the exhaustion reason *)
      final_cost : int;
      cost_history : int list;
      sat_calls : int;
      sat_conflicts : int;  (** sweep + PO-phase solver conflicts *)
      sat_propagations : int;  (** sweep + PO-phase solver propagations *)
      sat_restarts : int;  (** sweep + PO-phase solver restarts *)
      cache_hits : int;
      cache_added : int;
      attempts : int;  (** supervisor attempts this result took *)
      time : float;
    }

type event = { job : int; label : string; at : float; payload : payload }

val json : event -> Simgen_base.Json.t
(** The event as one JSON object. *)

val to_json : event -> string
(** [json], printed: one line, no trailing newline. *)

type sink

val null : sink

val memory : unit -> sink * (unit -> event list)
(** In-memory sink for tests: the second component returns the events
    emitted so far, oldest first. *)

val callback : (event -> unit) -> sink
(** Route every event to [f] (serialised under the sink's mutex). The
    serving layer uses this to multiplex one job's telemetry to both the
    daemon log and the requesting client. *)

val channel : out_channel -> sink
(** JSONL sink: one [to_json] line per event, flushed per line so the
    stream is tail-able while a batch runs. The caller owns the channel. *)

val emit : sink -> job:int -> label:string -> payload -> unit
