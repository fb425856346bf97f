(** Network stacking, equivalent to ABC's [&putontop] (paper §6.4).

    [stack net k] chains [k] copies of [net]: the POs of copy [i] drive the
    PIs of copy [i+1]. When a copy has more POs than PIs the surplus POs
    become POs of the stack; when it has more PIs than POs the missing PIs
    become fresh stack PIs. The result scales depth (and SAT hardness)
    roughly [k]-fold while keeping the node functions of the original. *)

val stack : Network.t -> int -> Network.t
(** Requires [k >= 1]; [stack net 1] is a plain copy. The result's level
    cache is recomputed before returning, so stacking can never leave a
    stale annotation behind. *)
