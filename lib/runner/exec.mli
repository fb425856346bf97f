(** Execute one job: the budgeted CEC/sweep flow with telemetry and the
    shared pattern cache. Never raises — any exception becomes a
    [Job.Failed] result. Used by {!Pool}; exposed for tests and for
    embedding a single budgeted run without a pool. *)

val run :
  ?cache:Pattern_cache.t ->
  ?fun_cache:Simgen_sweep.Fun_cache.t ->
  ?cancel:bool Simgen_base.Shared.Atomic.t ->
  events:Events.sink ->
  worker:int ->
  Job.spec ->
  Job.result
(** [fun_cache] turns on the cut-local check
    ({!Simgen_sweep.Fun_cache}) that
    {!Simgen_sweep.Sweeper.verify_pair} runs before any SAT query, and
    emits a [fun-cache] telemetry event with the job's consult and hit
    counts at finish. The serving layer passes it; batch runs do not. *)
