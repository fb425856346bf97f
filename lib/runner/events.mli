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
      delta : Simgen_sweep.Sweeper.guided_stats;  (** this round's own stats *)
    }
      (** encoded as [vectors], [conflicts] ([gen_conflicts]) and
          [skipped] *)
  | Sat_sweep of { stats : Simgen_sweep.Sweeper.sat_stats; cost : int }
      (** the sweep's solver counters; the encoder leaves out
          [watch_visits], [clause_reads] and [sat_time] *)
  | Fault of { site : string; count : int }
      (** an armed {!Simgen_fault.Fault} site fired [count] times during
          the attempt just finished *)
  | Retry of { attempt : int; delay : float; cause : string }
      (** attempt [attempt] failed on a retryable [cause]; the supervisor
          sleeps [delay] seconds and re-runs the job *)
  | Degrade of Simgen_sweep.Sweeper.degrade_stats
      (** what the degradation ladder had to do; emitted only when a
          counter is non-zero. Its [quarantined] pairs leave as
          [Quarantine] events, not in this one *)
  | Quarantine of { a : int; b : int }
      (** a candidate pair every ladder rung gave up on — reported, never
          merged *)
  | Fun_cache_stats of Simgen_sweep.Fun_cache.stats
      (** the counters of the cut-local check of the job's last
          attempt ({!Simgen_sweep.Sweeper.fun_cache_stats}); emitted
          only when the check was consulted at least once. The encoder
          leaves out [local_cexes] *)
  | Certificate of { report : Simgen_check.Certificate.report; time : float }
      (** the whole-sweep certificate of a [certify] job was replayed by
          the independent checker ({!Simgen_check.Certificate.check}) in
          [time] seconds; [valid = false] fails the job *)
  | Finished of Job.result
      (** the encoder derives [budget] (["ok"] or the exhaustion reason)
          from the status, and sums the sweep's and the PO phase's SAT
          calls, conflicts, propagations and restarts; a job with no
          flow report reports zeros *)

type event = { job : int; label : string; at : float; payload : payload }

val json : event -> Simgen_base.Json.t
(** The event as one JSON object. *)

val to_json : event -> string
(** [json], printed: one line, no trailing newline. Test seam: the
    telemetry tests check one event's rendering. *)

type sink

val null : sink

val memory : unit -> sink * (unit -> event list)
(** In-memory sink: the second component returns the events emitted so
    far, oldest first. Test seam: the telemetry tests read jobs' events
    back with it. *)

val callback : (event -> unit) -> sink
(** Route every event to [f] (serialised under the sink's mutex). The
    serving layer uses this to multiplex one job's telemetry to both the
    daemon log and the requesting client. *)

val channel : out_channel -> sink
(** JSONL sink: one [to_json] line per event, flushed per line so the
    stream is tail-able while a batch runs. The caller owns the channel. *)

val emit : sink -> job:int -> label:string -> payload -> unit
