(** Runtime invariant audits (codes [R001]..[R003]).

    Unlike the static lints, these run inside the sweeping pipeline —
    gated behind {!Simgen_base.Runtime_check.enabled} (the [SIMGEN_CHECK]
    environment variable or an explicit [?check] argument) — and raise
    {!Simgen_base.Runtime_check.Violation} instead of returning
    diagnostics: a violated invariant means in-memory state is corrupt and
    continuing would produce wrong equivalence verdicts, not just noisy
    output. Further audit codes live next to the state they check
    ([R004]..[R006] in [Simgen_sweep.Sat_session] and
    [Simgen_core.Assignment]). *)

val eq_partition :
  Simgen_sim.Eq_classes.t -> Simgen_network.Network.t -> unit
(** [R001]: classes sorted, size >= 2, pairwise disjoint, gates only, and
    the [class_of] index agrees with the class list. No-op when checking
    is disabled. *)

val substitution : int array -> unit
(** [R002]/[R003]: a sweeping substitution must be monotone —
    [subst.(n) <= n] for all [n], with targets inside the array — which
    also rules out cycles. No-op when checking is disabled. *)

val check_exn : what:string -> Diagnostic.t list -> unit
(** Raise {!Simgen_base.Runtime_check.Violation} when the list contains an
    error-severity diagnostic (regardless of the enabled flag — callers
    decide whether to run the lint at all). *)
