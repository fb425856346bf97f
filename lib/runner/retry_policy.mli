(** Retry policy for supervised jobs.

    The executor's supervisor ({!Exec.run}) re-runs a job whose attempt
    died on a retryable failure — an escaped exception (including injected
    worker crashes) or a {!Budget.Watchdog} stall — sleeping an
    exponentially growing, jittered delay between attempts. Budget
    exhaustions other than the watchdog, and genuine verdicts, are final:
    retrying them would just spend the same budget again. *)

type t = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  backoff : float;
      (** seconds before the second attempt; each further attempt
          doubles it *)
  jitter : float;
      (** relative jitter in [0, 1]: each delay is scaled by a uniform
          factor from [1 - jitter, 1 + jitter], decorrelating workers
          that fail together *)
}

val none : t
(** One attempt, no retries — the pre-supervisor behaviour. *)

val default : t
(** 3 attempts, 50 ms initial backoff, doubling, 0.5 jitter. *)

val with_attempts : int -> t -> t
(** Override [max_attempts] (raises [Invalid_argument] below 1). *)

val delay : t -> Simgen_base.Rng.t -> attempt:int -> float
(** Seconds to sleep after failed attempt [attempt] (1-based). The jitter
    scale is drawn from [rng], so the sequence is deterministic per
    seed. *)
