(** The daemon's versioned JSONL request/response protocol.

    One JSON object per line in both directions. Requests:

    {v
    {"v":1,"id":7,"cmd":"ping"}
    {"v":1,"id":8,"cmd":"stats"}
    {"v":1,"id":9,"cmd":"shutdown"}
    {"v":1,"id":10,"cmd":"lint","target":"apex2"}
    {"v":1,"id":11,"cmd":"sweep","args":"apex2 stacked=true"}
    {"v":1,"id":12,"cmd":"cec","args":"apex2 apex2 stacked=true deadline=5.0"}
    {"v":1,"id":13,"cmd":"certify","args":"square stacked=true"}
    {"v":1,"id":14,"cmd":"sweep","args":"apex2","deadline_ms":2000}
    v}

    [args] for job commands is the tail of a {!Simgen_runner.Manifest}
    line — circuits plus [key=value] options — so per-request budgets,
    retry policy, seeds and certification ride the existing manifest
    grammar. [certify] is [sweep] with [certify=true] forced.

    Responses all carry the request's [id] and a [type]:

    {v
    {"id":11,"type":"event","event":{...runner telemetry event...}}
    {"id":11,"type":"result","status":"swept","final_cost":123,...}
    {"id":11,"type":"error","message":"..."}
    {"id":11,"type":"overloaded","retry_after":0.25}
    v}

    A request is answered by zero or more [event] frames followed by
    exactly one [result], [error] or [overloaded] frame. Frames print
    through {!Simgen_base.Json}, the printer of every JSON line the repo
    writes. *)

type json = Simgen_base.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
(** The JSON values of {!Simgen_base.Json}, re-exported with the
    functions below so protocol users need one module. *)

val parse : string -> (json, string) result
val to_string : json -> string
val member : string -> json -> json option
val int_member : string -> json -> int option
val string_member : string -> json -> string option

val version : int
(** 1. Requests with any other [v] are rejected. *)

type request =
  | Ping
  | Stats
  | Shutdown
  | Lint of { target : string }
  | Job of { cmd : string; args : string; deadline_ms : int option }
      (** [cmd] is ["sweep"], ["cec"] or ["certify"]; [args] a manifest
          line tail. [deadline_ms], when present, is the client's
          end-to-end budget for the request measured from daemon receipt:
          it bounds time spent queued {e plus} running (the server sheds
          the job with a deadline answer if it expires before dispatch,
          and otherwise folds the remaining time into the job's
          {!Simgen_runner.Budget} deadline). Must be positive;
          non-positive values are rejected at parse time. *)

val request_to_line : id:int -> request -> string
val request_of_line : string -> (int * request, string) result

type frame =
  | Event of json  (** one runner telemetry event *)
  | Result of (string * json) list  (** final answer fields *)
  | Failed of string  (** the [error] frame *)
  | Overloaded of { retry_after : float }
      (** admission control refused the job: the bounded queue is full.
          [retry_after] is the daemon's estimate (seconds) of when
          capacity frees up — a hint, not a promise. Clients should
          back off at least that long before retrying
          ({!Client} does, with jitter). *)

val frame_to_line : id:int -> frame -> string
val frame_of_line : string -> (int * frame, string) result
