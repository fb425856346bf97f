(** The global switch for runtime invariant audits.

    Optimizing passes (sweeping merges, incremental SAT sessions, the
    pattern-generation engine) carry cheap self-checks that are compiled in
    but skipped unless auditing is on. The switch defaults to the
    [SIMGEN_CHECK] environment variable ([1]/[true]/[yes]/[on] enable it)
    and can be overridden programmatically — test suites call
    {!set_enabled} [true] so every run doubles as an invariant audit, and
    call sites may accept a [?check] argument that overrides the global
    default per instance.

    A failed audit raises {!Violation}: the state is corrupt and continuing
    would silently propagate a wrong verdict. *)

exception Violation of string

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Test seam: the check tests switch the audits off for a whole run,
    whatever [SIMGEN_CHECK] says. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch forced to a value, restoring it after. *)

val failf : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Violation} with a formatted message. *)
