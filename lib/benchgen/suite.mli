(** The 42-circuit synthetic benchmark suite.

    One named entry per benchmark of the paper's Table 2 (VTR/MCNC, EPFL
    and ITC'99 names). Every circuit is generated deterministically from
    its name, passed through {!Redundancy.inject} so it carries internal
    equivalences and near-misses, and LUT-mapped with K = 6 — mirroring the
    paper's §6.1 preparation (`if -K 6`).

    These are stand-ins, not the original netlists (see DESIGN.md §4): the
    experiments measure equivalence-class separation and SAT effort, which
    depend on topology mix and internal redundancy, both of which the
    generators reproduce. *)

type family = Mcnc_pla | Arithmetic | Epfl_control | Itc99

type entry = {
  name : string;
  family : family;
  stack_copies : int option;
      (** Some k for the benchmarks the paper's §6.4 stacks with
          [&putontop] (the parenthesised counts of Table 2's lower half). *)
}

val entries : entry list
(** All 42 entries, in Table 2 order. *)

val names : string list

val find : string -> entry option

val aig : string -> Simgen_aig.Aig.t
(** The benchmark's AIG (with injected redundancy), deterministic per
    name. @raise Not_found for unknown names. *)

val lut_network : ?k:int -> string -> Simgen_network.Network.t
(** The LUT-mapped benchmark (default K = 6) — the form the sweeping
    experiments consume. *)

val stacked_lut_network : ?k:int -> string -> Simgen_network.Network.t
(** The §6.4 variant: the benchmark's LUT network stacked [stack_copies]
    times (falls back to 2 copies when the entry has none). *)
