module Rng = Simgen_base.Rng

type t = { max_attempts : int; backoff : float; jitter : float }

let none = { max_attempts = 1; backoff = 0.0; jitter = 0.0 }
let default = { max_attempts = 3; backoff = 0.05; jitter = 0.5 }

let with_attempts n p =
  if n < 1 then invalid_arg "Retry_policy.with_attempts: need at least 1";
  { p with max_attempts = n }

(* Exponential backoff with deterministic jitter: the delay before attempt
   [n+1] (1-based [n]) is [backoff * 2^(n-1)] scaled by a factor
   drawn uniformly from [1 - jitter, 1 + jitter] off an RNG the caller
   seeds per job — two workers retrying the same manifest line back off
   identically across runs, but differently from each other. *)
let delay p rng ~attempt =
  if attempt < 1 then invalid_arg "Retry_policy.delay: attempt is 1-based";
  let base = p.backoff *. (2.0 ** float_of_int (attempt - 1)) in
  let scale =
    if p.jitter <= 0.0 then 1.0
    else 1.0 -. p.jitter +. Rng.float rng (2.0 *. p.jitter)
  in
  Float.max 0.0 (base *. scale)
