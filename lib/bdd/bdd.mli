(** Reduced Ordered Binary Decision Diagrams.

    The alternative verification engine of classical CEC flows (paper
    §2.2: sweeping "was initially based on BDDs"). A manager owns a
    unique-table of nodes over a fixed variable order plus a computed
    cache for the [ite] operator; equality of functions is pointer
    equality of roots, which makes node-equivalence checks O(1) once the
    BDDs are built — at the price of possible exponential size, which is
    why the manager enforces a node quota. *)

type manager

type t
(** A BDD rooted in a manager. Structural equality coincides with
    functional equality for BDDs of the same manager. *)

exception Node_limit_exceeded
(** Raised by the constructors when the manager's quota is hit — the
    caller should fall back to SAT (see {!Simgen_sweep.Sweeper}). *)

val manager : ?max_nodes:int -> int -> manager
(** [manager nvars] with variables [0 .. nvars-1] ordered by index.
    [max_nodes] (default 1_000_000) bounds the unique table. *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t

val not_ : manager -> t -> t
val xor : manager -> t -> t -> t
val ite : manager -> t -> t -> t -> t

val equal : t -> t -> bool
(** Functional equality (constant time). *)

val is_zero : manager -> t -> bool
val is_one : manager -> t -> bool

val eval : manager -> t -> bool array -> bool
(** Evaluate under a complete variable assignment. Test seam: the BDD
    tests check every construction against truth tables through it. *)

val any_sat : manager -> t -> bool array option
(** A satisfying assignment (variables not on the path default to
    [false]), or [None] for the zero BDD. *)

val build_network :
  manager -> Simgen_network.Network.t -> t array
(** BDD of every node of a network, PIs mapped to variables by PI index
    (requires [num_pis <= num_vars]).
    @raise Node_limit_exceeded when the quota is hit. *)
