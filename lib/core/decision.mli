(** Decision: choosing a truth-table row when implication stalls (paper §5).

    Given the candidate gate's matching rows (row indices, from
    {!Engine.matching_rows}), ranks them by the don't-care
    count (Eq. 1) and the MFFC metric (Eqs. 2–3), combines the two into the
    priority of Eq. 4 and draws a row with a stochastic-acceptance roulette
    wheel. The chosen row's concrete values are then assigned through the
    engine. *)

type t

val create : ?rng:Simgen_base.Rng.t -> Engine.t -> t
(** Builds the MFFC depth cache lazily on first use (only the
    [Dc_mffc_weighted] policy pays for it). *)

val mffc_rank : t -> Simgen_network.Network.node_id -> int -> float
(** Equation (3) for row [r] of the given gate (an index into
    {!Engine.rows_of}): sum over the row's non-DC inputs of the fanin's
    MFFC depth, in fanin order. Computed once per gate for all its rows
    and cached. Test seam: the Fig. 4c test reads the ranks. *)

val decide : t -> Simgen_network.Network.node_id -> (unit, Simgen_network.Network.node_id) result
(** Full decision step on a candidate gate: compute matching rows, choose
    one by the engine's configured decision policy (a single matching row
    is taken without a draw), assign its values through the engine
    ([Error g] when no row matches, i.e. the decision itself exposes a
    conflict). Increments the decision counter. The matching rows, their
    priorities and each gate's per-row DC counts and ranks live in arrays
    the decision state owns, so a decision allocates nothing. *)

val num_decisions : t -> int
