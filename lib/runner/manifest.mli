(** Job-manifest parsing for [simgen batch].

    One job per line, ['#'] comments, blank lines skipped:

    {v
    # stacked CEC regression, 2s deadline each, 3 attempts per job
    cec   apex2 apex2  stacked=true deadline=2.0 retries=3
    sweep designs/top.blif  iterations=40 max-sat=500 seed=11
    v}

    A circuit token that names an existing file or carries a circuit
    extension ([.blif]/[.bench]/[.aag]) or a ['/'] is read from disk;
    anything else must be a built-in suite benchmark name
    ([stacked=true] selects its putontop variant). Job ids number the
    jobs in file order from 0. The option keys are {!keys}:

    - sweep settings: [seed], [strategy], [iterations] (guided
      rounds), [random] (random rounds), [max-sat] (SAT queries of the
      whole flow, sweep and PO phase together), [max-conflicts] (base
      per-query conflict budget for the degradation ladder), [certify]
      (record and validate a whole-sweep certificate), [solver-audit]
      (arm the sampled solver-state sanitizer);
    - budget: [deadline] (seconds, float), [watchdog] (seconds per
      attempt, float);
    - supervision: [retries] (attempts, >= 1; backoff schedule from
      {!Retry_policy.default}), [backoff] (first retry delay, seconds);
    - [stacked], [label]. *)

type options = {
  sweep : Simgen_sweep.Sweep_options.t;
      (** starts as {!Simgen_sweep.Sweep_options.default} *)
  stacked : bool;
  label : string option;
  limits : Budget.limits;
  retry : Retry_policy.t;
}
(** Per-line options after defaults; [defaults] below lets a caller (the
    CLI's [--retry]/[--max-conflicts] flags) override the baseline that
    per-line [key=value] pairs then refine. *)

val keys : string list
(** Every option key the parser accepts, in documentation order. *)

val default_options : options

val parse_file : ?defaults:options -> string -> Job.spec list
(** @raise Failure with a [line N:] prefix on malformed input. *)

val parse_string : ?defaults:options -> string -> Job.spec list
(** Test seam: the manifest tests parse without files. *)

val parse_lines : ?defaults:options -> string list -> Job.spec list
