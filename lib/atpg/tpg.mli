(** Test pattern generation.

    Three escalating engines, mirroring how SimGen relates to ATPG
    (paper §2.4):

    + {b random patterns} detect the easy faults;
    + {b guided activation}: the SimGen engine drives the fault site to
      the opposite value (activation); fault simulation checks whether
      the discrepancy reaches a PO (propagation is left to chance, which
      is exactly the backtrack-free trade-off SimGen makes);
    + {b SAT}: a miter between the fault-free and the faulty circuit
      decides testability exactly — the fall-back a backtracking
      D-algorithm would otherwise provide. *)

type stats = {
  total : int;
  by_random : int;
  by_guided : int;
  by_sat : int;
  untestable : int;
  guided_attempts : int;  (** activation vectors generated *)
  sat_calls : int;
}

val campaign : ?seed:int -> Simgen_network.Network.t -> stats
(** Full flow over every gate fault: 64 random vectors first, then up to
    5 guided activation vectors per fault (the first that fault
    simulation confirms is its test), then a good-vs-faulty SAT miter
    for the leftovers, which decides testability exactly. The three
    tiers' detection counts quantify how far the cheap engines carry —
    the ATPG counterpart of the paper's random-then-guided-then-SAT
    sweeping story. *)

val pp_stats : Format.formatter -> stats -> unit
