(** Greedy global storage-constrained placement (Kangasharju et al. style).

    A centralized heuristic with global knowledge: at each evaluation
    interval it fills a uniform per-node capacity budget greedily,
    repeatedly placing the (node, object) pair with the best marginal
    covered demand per unit of cost. Replicas already placed in the
    previous interval are cheaper to keep (no creation cost), which the
    score accounts for, so placements are sticky across intervals for
    stable workloads.

    This is the deployed representative of the "storage constrained"
    class; its cost is evaluated through {!Mcperf.Costing} under that
    class, so the fixed-capacity padding is charged exactly as in the
    lower bound's rounding. *)

val place :
  perm:Mcperf.Permission.t ->
  capacity:float ->
  unit ->
  Mcperf.Costing.placement
(** [place ~perm ~capacity ()] runs the greedy heuristic with the given
    uniform per-node capacity (in weighted object units). The permission
    analysis supplies reach/origin information; the heuristic respects the
    class's placement permissions, so the result can be compared with the
    storage-constrained bound. *)

val strategy : Strategy.factory
(** The same heuristic behind the strategy-object API, placed and priced
    under the storage-constrained class: parameter = per-node
    capacity (weighted object units, integer grid). *)
