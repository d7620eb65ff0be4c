(** Greedy replica-constrained placement (Qiu et al. style).

    A centralized heuristic that maintains a fixed number of replicas per
    object for the whole execution. Replica locations are chosen greedily
    per object: each successive replica goes to the node covering the most
    still-uncovered demand for that object (aggregated over the run).
    Replicas are held for the full horizon, which is exactly the cost
    behaviour the replica-constraint lower bound charges (heavy for
    rarely-accessed objects, cheap for uniformly popular ones — the
    paper's WEB vs GROUP contrast). *)

val place :
  perm:Mcperf.Permission.t ->
  replicas:int ->
  unit ->
  Mcperf.Costing.placement
(** [place ~perm ~replicas ()] picks up to [replicas] locations per object
    (fewer when no further node adds coverage). *)

val strategy : Strategy.factory
(** The heuristic as a strategy factory, placed and priced under the
    uniform replica-constrained class: parameter = replicas per
    object. *)
