(** Instrumented shared-state primitives and the concurrency trace.

    Every piece of state shared across Domains in this codebase is meant
    to live behind one of three primitives: {!Mutex} (a lock), {!Atomic}
    (a lock-free scalar) or {!Cell} (a plain mutable slot whose
    discipline — "only touched with such-and-such lock held" — is a
    convention, not a guarantee). This module wraps all three so that,
    when recording is armed, every acquire/release/read/write plus every
    domain {!spawn}/{!join} is logged into a per-domain append-only
    buffer. The merged, globally-sequenced trace feeds the offline
    vector-clock race detector ([Simgen_check.Race_check]), which proves
    or refutes the conventions.

    Disarmed (the default), each operation costs one atomic load on top
    of the raw primitive — the same probe discipline as
    [Simgen_fault.Fault]. Arm with [SIMGEN_TSAN=1] in the environment
    (read at module load), or programmatically with {!arm}.

    Recording discipline: arm before spawning the domains under test and
    snapshot after joining them — {!snapshot} and {!reset_trace} are only
    meaningful on a quiescent trace. A mutex held across the arming
    boundary would log an unmatched release; critical sections in this
    codebase are short-lived, and the analyzer ignores a release on a
    mutex it never saw acquired. *)

val arm : unit -> unit
(** Start recording events. Idempotent. *)

val disarm : unit -> unit
(** Stop recording. Already-buffered events are kept until
    {!reset_trace}. *)

val is_armed : unit -> bool

val here : string * int * int * int -> Srcloc.t
(** [here __POS__] — the declaration site of a shared object, for
    race-report locations. *)

(** {1 Trace model} *)

type kind = Kmutex | Katomic | Kcell | Ktoken

type obj_info = {
  oid : int;
  okind : kind;
  oname : string;  (** stable dotted name, e.g. ["runner.pattern-cache.lock"] *)
  oloc : Srcloc.t;  (** declaration site *)
}

type op =
  | Acquire
  | Release
  | Atomic_read
  | Atomic_write
  | Atomic_update  (** read-modify-write: acquire + release *)
  | Read
  | Write
  | Spawn  (** parent-side, [obj] is a fresh token id *)
  | Begin  (** child's first event, same token *)
  | End_  (** child's last event, same token *)
  | Join  (** parent-side after [Domain.join], same token *)

type event = {
  seq : int;  (** global sequence number, drawn so that per-object sync
                  order matches real time *)
  domain : int;  (** raw [Domain.self] id *)
  op : op;
  obj : int;  (** object id, or token id for spawn/join events *)
  at : Srcloc.t;  (** access site when the caller passed one; the
                      analyzer falls back to the object's [oloc] *)
}

type trace = { objects : obj_info list; events : event list }
(** [events] sorted by [seq]. *)

(** {1 Primitives} *)

module Mutex : sig
  type t

  val create : ?loc:Srcloc.t -> string -> t
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Recorded as a release of the mutex before blocking and an acquire
      after waking, which is exactly the happens-before shape
      [Stdlib.Condition.wait] has. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module Atomic : sig
  type 'a t

  val make : ?loc:Srcloc.t -> string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit

  val silent_get : 'a t -> 'a
  (** Unrecorded access for async-signal contexts: recording appends to
      the interrupted domain's buffer, which is not reentrant. Signal
      handlers must use the silent pair; everything else should not. *)

  val silent_set : 'a t -> 'a -> unit
end

module Cell : sig
  type 'a t
  (** A plain mutable slot — no synchronization of its own. The point of
      declaring shared plain state as a [Cell] instead of a [mutable]
      record field is that its reads and writes land in the trace, so
      the detector can check the locking convention that is supposed to
      guard it. *)

  val make : ?loc:Srcloc.t -> string -> 'a -> 'a t
  val get : ?at:Srcloc.t -> 'a t -> 'a
  val set : ?at:Srcloc.t -> 'a t -> 'a -> unit
  val update : ?at:Srcloc.t -> 'a t -> ('a -> 'a) -> unit
  val incr : ?at:Srcloc.t -> int t -> unit
  val add : ?at:Srcloc.t -> int t -> int -> unit
end

type 'a domain
(** A spawned domain plus the trace token tying its events to the
    spawn/join points in the parent. *)

val spawn : ?loc:Srcloc.t -> (unit -> 'a) -> 'a domain
val join : 'a domain -> 'a

(** {1 Trace access and persistence} *)

val reset_trace : unit -> unit
(** Drop all buffered events and restart the sequence counter. Only call
    on a quiescent trace (no armed domains running). Registered objects
    are kept — they live inside long-lived data structures. *)

val snapshot : unit -> trace
(** Merge the per-domain buffers into one seq-ordered trace. Quiescent
    traces only. *)

val write_trace : trace -> string -> unit
(** Line-oriented text format, magic header [simgen-tsan 1]; strings are
    percent-encoded so the format survives any name or path. *)

val parse_trace : string -> (trace * (int * string) list, string) result
(** [Ok (trace, corrupt)] parses every well-formed line and reports each
    corrupt one as [(line_number, message)] — a damaged trace degrades
    to a partial analysis plus located parse diagnostics, never a crash.
    [Error _] only for an unreadable file or a missing/foreign header. *)
