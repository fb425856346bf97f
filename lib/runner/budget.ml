module Timer = Simgen_base.Timer
module Shared = Simgen_base.Shared

type limits = { deadline : float option; watchdog : float option }

let unlimited = { deadline = None; watchdog = None }

type reason = Deadline | Watchdog | Sat_calls | Cancelled

let reason_to_string = function
  | Deadline -> "deadline"
  | Watchdog -> "watchdog"
  | Sat_calls -> "sat-calls"
  | Cancelled -> "cancelled"

type t = {
  limits : limits;
  started : float;
  cancel : bool Shared.Atomic.t;
  (* First exhaustion reason, sticky: once a budget trips, every later
     check reports the same reason, so a job's exit cause is stable even
     if a second limit would also have tripped meanwhile. *)
  mutable verdict : reason option;
}

let start ?cancel limits =
  {
    limits;
    started = Timer.now ();
    cancel =
      (match cancel with
      | Some c -> c
      | None ->
          Shared.Atomic.make ~loc:(Shared.here __POS__) "runner.budget.cancel"
            false);
    verdict = None;
  }

let elapsed t = Timer.now () -. t.started

let check t =
  match t.verdict with
  | Some _ as v -> v
  | None ->
      let over limit =
        match limit with Some m -> elapsed t >= m | None -> false
      in
      let v =
        if Shared.Atomic.get t.cancel then Some Cancelled
        else if over t.limits.deadline then Some Deadline
        else if over t.limits.watchdog then Some Watchdog
        else None
      in
      t.verdict <- v;
      v

let should_stop t () = check t <> None
