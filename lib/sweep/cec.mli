(** Combinational equivalence checking of two networks (paper §2.2).

    The two networks are joined over shared PIs into one network; random
    plus guided simulation partitions the internal equivalence classes, SAT
    sweeping proves internal equivalences, and finally each PO pair is
    miter-checked (with the proven substitutions shrinking the PO miters).
*)

type outcome =
  | Equivalent
  | Not_equivalent of { po : int; vector : bool array }
      (** index of the first differing PO pair and a distinguishing input *)
  | Inconclusive of { pos : int list }
      (** every decided PO pair proved equal, but these PO indices were
          quarantined by the degradation ladder ({!Sweeper.verify_pair}):
          no verdict, rather than a wrong one. Only reachable with a
          conflict budget set (or under injected faults). *)

type report = {
  outcome : outcome;
  stopped : bool;
      (** [should_stop] or [max_sat_calls] cut the flow short;
          [outcome] is then [Inconclusive] over every PO pair not yet
          decided *)
  guided : Sweeper.guided_stats;
  sat : Sweeper.sat_stats;
  po_calls : int;  (** extra SAT calls for the PO miters *)
  po_stats : Simgen_sat.Solver.stats;
      (** solver counters of the PO miters, summed over the queries *)
  final_cost : int;  (** Eq. (5) cost after the whole flow *)
  cost_history : int list;
      (** cost after every refinement event, oldest first — includes the
          PO-phase counter-example, which is fed back before returning *)
  total_time : float;
}

val run : Sweep_options.t -> Sweeper.t -> int array -> int array -> report
(** [run opts sweeper pos1 pos2] is the whole flow over an existing
    sweeper: [random_rounds] random rounds, the guided rounds
    ({!Sweeper.run_guided}), the SAT sweep ({!Sweeper.sat_sweep}), then a
    miter per PO pair [pos1.(i)], [pos2.(i)] through
    {!Sweeper.verify_pair}, with counter-examples fed back. With no PO
    pairs it is a plain sweep whose outcome is [Equivalent].

    [should_stop] is polled before random rounds 2..n, before every
    guided round, before and after the SAT sweep and before every PO
    query; once it answers [true] the flow does no more work and reports
    [stopped]. [max_sat_calls] counts the sweep's queries and the PO
    queries together: the flow also stops, [stopped], before a PO query
    once [sat.calls + po_calls] has reached the cap. A sweep that spends
    the cap with no PO query left to pose is not [stopped]. [observe]
    sees every random round, every guided round's own stats, the
    sweep's stats and every counter-example, as they happen. *)

val check :
  Sweep_options.t ->
  Simgen_network.Network.t ->
  Simgen_network.Network.t ->
  report
(** The full CEC flow under one options record ({!Sweep_options.default}
    is the paper's §6.1 setup): {!join}, {!Sweeper.create}, then {!run}.
    Requires equal PI and PO counts. With
    [incremental] set (the default) the PO miters run through the same
    {!Sat_session} as the sweep, reusing its cone encodings and learned
    clauses. *)

val join :
  Simgen_network.Network.t ->
  Simgen_network.Network.t ->
  Simgen_network.Network.t * int array * int array
(** The joined network over shared PIs plus the PO node ids of each source
    network within it. Exposed for tests and examples. *)
