(** Static lints over Boolean networks (codes [N001]..[N013]).

    Structural errors (cycles, bad fanin references, arity mismatches,
    dangling POs) make a network unusable by the simulator and encoder;
    warnings and infos flag suspicious-but-legal shapes (duplicate names,
    foldable gates, unreachable logic). The full code table lives in
    DESIGN.md. Lints that need a sound topological order (stale level
    cache, MFFC containment) are skipped when structural errors are
    present — a cyclic network has no levels to validate. *)

val run : Simgen_network.Network.t -> Diagnostic.t list
(** The MFFC containment audit samples at most 512 gate roots, to keep
    the lint near-linear on big networks. *)
