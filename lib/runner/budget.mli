(** Cooperative per-job resource budgets.

    A job carries {!limits} (wall-clock deadline, SAT-call cap, guided
    iteration cap); the executor passes {!should_stop} to the flow
    ({!Simgen_sweep.Cec.run}, which polls it between units of work) so a
    job that exceeds its budget returns a partial result instead of
    running to completion. Checks are cooperative: they happen at loop
    boundaries, never by preemption, so a single SAT call always runs to
    its own completion. *)

type limits = {
  deadline : float option;  (** wall-clock seconds for the whole job *)
  watchdog : float option;
      (** wall-clock seconds for {e one attempt} of the job. The
          supervisor restarts the clock on retry (with the [deadline]
          carrying over as the remaining time), so a stalled attempt is
          cut off and retried where a [deadline] exhaustion would end the
          job. *)
  max_sat_calls : int option;  (** sweep + PO miter solver calls *)
  max_guided_iterations : int option;
}

val unlimited : limits

type reason = Deadline | Watchdog | Sat_calls | Guided_iterations | Cancelled

val reason_to_string : reason -> string

type t
(** A running budget: limits plus consumption counters. Not thread-safe —
    one budget belongs to exactly one job on one worker; only the
    [cancel] flag is shared across domains. *)

val start : ?cancel:bool Simgen_base.Shared.Atomic.t -> limits -> t
(** Start the wall clock. [cancel] is an external kill switch (typically
    shared by every job of a pool run); when it becomes [true] the next
    check reports [Cancelled]. *)

val check : t -> reason option
(** [None] while within budget. The first exhaustion reason is sticky. *)

val should_stop : t -> unit -> bool
(** Closure form of {!check} for threading into sweeping loops. *)

val elapsed : t -> float
val note_sat_calls : t -> int -> unit
val note_guided_iteration : t -> unit

val remaining_sat_calls : t -> int option
(** SAT calls left under [max_sat_calls] ([None] if unlimited) — the
    cap for the SAT sweep's [max_sat_calls]. *)

val sat_calls : t -> int
val guided_iterations : t -> int
