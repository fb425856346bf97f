(** Cooperative per-job wall-clock budgets.

    A job carries {!limits} (a deadline for the whole job, a watchdog
    per attempt); the executor passes {!should_stop} to the flow
    ({!Simgen_sweep.Cec.run}, which polls it between units of work), and
    a cancel flag can cut every job short, so a job that runs out of
    time returns a partial result instead of running to completion.
    Checks are cooperative: they happen at loop boundaries, never by
    preemption, so a single SAT call always runs to its own completion.
    The flow's work caps are not here: the SAT-call cap is
    {!Simgen_sweep.Sweep_options.t.max_sat_calls} and the guided rounds
    are {!Simgen_sweep.Sweep_options.t.guided_iterations}. *)

type limits = {
  deadline : float option;  (** wall-clock seconds for the whole job *)
  watchdog : float option;
      (** wall-clock seconds for {e one attempt} of the job. The
          supervisor restarts the clock on retry (with the [deadline]
          carrying over as the remaining time), so a stalled attempt is
          cut off and retried where a [deadline] exhaustion would end the
          job. *)
}

val unlimited : limits

type reason = Deadline | Watchdog | Sat_calls | Cancelled
(** Why a job stopped short. {!check} answers every reason but
    [Sat_calls], which the executor reports for a flow that spent its
    [max_sat_calls]. *)

val reason_to_string : reason -> string

type t
(** A running budget: limits, start time and the sticky verdict. Not
    thread-safe — one budget belongs to exactly one job on one worker;
    only the [cancel] flag is shared across domains. *)

val start : ?cancel:bool Simgen_base.Shared.Atomic.t -> limits -> t
(** Start the wall clock. [cancel] is an external kill switch (typically
    shared by every job of a pool run); when it becomes [true] the next
    check reports [Cancelled]. *)

val check : t -> reason option
(** [None] while within budget. The first exhaustion reason is sticky. *)

val should_stop : t -> unit -> bool
(** Closure form of {!check} for threading into sweeping loops. *)
