(** Deterministic fault injection.

    A registry of named fault sites planted at the failure-prone seams of
    the stack (SAT budgets, session re-encoding, parsing, the pattern
    cache, guided generation, worker domains). Each site is normally
    inert: the planted probe is a single atomic load ({!enabled}) followed
    by a hash-table miss, so production paths pay nothing measurable. Arming
    a site — programmatically with {!arm} or via the [SIMGEN_FAULT]
    environment variable — makes its probe fire deterministically from a
    per-site RNG, which is how the fault-matrix tests replay the exact
    same failure under three different seeds.

    Sites are identities, not behaviours: firing only reports [true] (or
    raises {!Injected} via {!crash}); the code hosting the probe decides
    what "failing" means there — returning [Unknown], corrupting a
    checksum, stalling a domain. That keeps the registry dependency-free
    and the failure semantics next to the code being failed. *)

exception Injected of string
(** Raised by {!crash} when a site fires. The payload is the site name.
    Hosts that can fail by raising use this; the supervisor in
    [lib/runner] recognises it and counts the attempt as faulted. *)

val sites : string list
(** All registered site names, in ladder order:
    ["sat-budget"]; ["session-corrupt"]; ["parse"]; ["cache-poison"];
    ["gen-giveup"]; ["worker-crash"]; ["worker-stall"]; ["conn-drop"];
    ["slow-client"]. The last two are service-level sites exercised by
    the soak harness: ["conn-drop"] severs a daemon client connection
    mid-stream, and ["slow-client"] stalls a response write as a slow
    reader would. *)

val arm : ?times:int -> ?prob:float -> ?seed:int -> string -> unit
(** [arm site] arms a site. [prob] (default [1.0]) is the chance each
    probe evaluation fires, drawn from a private RNG derived from [seed]
    (default [0]) and the site name. [times] (default unlimited) caps the
    number of firings; [arm ~times:1] gives the "first trigger only"
    injection the fault matrix uses. Unknown names raise
    [Invalid_argument]. Re-arming replaces the previous configuration. *)

val arm_all : ?times:int -> ?prob:float -> ?seed:int -> unit -> unit
(** Arm every registered site with the same configuration. *)

val disarm : string -> unit
(** Disarm one site. Unknown names raise [Invalid_argument]. *)

val reset : unit -> unit
(** Disarm every site and clear firing counters. Tests call this between
    cases; it does not re-read [SIMGEN_FAULT]. *)

val configure : string -> (unit, string) Stdlib.result
(** Parse and apply a [SIMGEN_FAULT] specification: a comma-separated
    list of [site\[:prob\[:seed\]\]] entries, where [site] may be [all].
    [Error _] describes the first malformed entry or unknown site; any
    entries before it are already applied. The module applies
    [SIMGEN_FAULT] from the environment at load time (a malformed value
    warns on stderr rather than aborting the host process). *)

val fire : string -> bool
(** [fire site] is the probe: [true] when the armed site's RNG says this
    evaluation fails. Always [false] for disarmed sites. Thread-safe;
    call it only through a short-circuit on {!enabled} so disarmed
    production runs skip the mutex. Unknown names raise
    [Invalid_argument] (a misspelt probe is a bug, not a disarmed site). *)

val crash : string -> unit
(** [crash site] raises [Injected site] when [fire site] is true. *)

val enabled : unit -> bool
(** [false] iff no site is armed. Probe sites as
    [if Fault.enabled () && Fault.fire "..." then ...] — one atomic load
    is the only cost on the fault-free path. The flag is a
    [Simgen_base.Shared.Atomic] so cross-domain reads of it are ordered
    (and auditable by the race detector); it used to be a plain
    [bool ref] read by worker domains, which was a latent race. *)

val fired : string -> int
(** How many times a site has fired since the last {!reset}. *)

val log : unit -> (string * int) list
(** [(site, fired)] for every site that has fired, in {!sites} order. *)
