(** Execute one job: the CEC/sweep flow of {!Simgen_sweep.Cec.run} under
    the job's budget, with lint pre-flight, telemetry, the shared pattern
    cache and retry supervision. Never raises — any exception becomes a
    [Job.Failed] result. Used by {!Pool}; exposed for tests and for
    embedding a single budgeted run without a pool. *)

val run :
  ?cache:Pattern_cache.t ->
  ?cancel:bool Simgen_base.Shared.Atomic.t ->
  events:Events.sink ->
  worker:int ->
  Job.spec ->
  Job.result
(** The job's [options] run as given, except that the executor sets
    [should_stop] (the job's {!Budget}), [observe] (telemetry events and
    cache sharing) and at least one random round. A flow that its
    [max_sat_calls] cut short — stopped before a PO query, or a sweep
    that spent the cap — ends as [Budget_exhausted Sat_calls], unless
    the budget tripped first. A job whose last attempt consulted the
    cut-local check ({!Simgen_sweep.Fun_cache}) emits a [fun-cache]
    telemetry event with that sweeper's counts at finish. *)
