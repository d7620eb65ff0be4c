(** Cost accounting for integral placements.

    A placement assigns each non-origin node, for each object, the set of
    intervals during which it stores a replica (an interval bitmask, like
    {!Permission.store_mask}). This module evaluates the paper's full cost
    function against such a placement — including the storage-constraint /
    replica-constraint padding of the rounding algorithm (Figure 5): a
    heuristic with a fixed footprint pays for its maximum footprint in
    every interval, so a placement is charged up to that maximum.

    Both the rounding algorithm's output and the simulated heuristics are
    evaluated through this single module, which keeps the "lower bound vs
    deployed heuristic" comparison of Figure 2 internally consistent. *)

type placement = int array array
(** [p.(node).(object_id)] = bitmask of intervals stored. The origin row is
    ignored (it stores everything permanently at sunk cost). *)

val empty_placement : Spec.t -> placement

type evaluation = {
  storage : float;  (** alpha * weighted object-intervals stored *)
  creation : float;  (** beta * weighted replica creations *)
  sc_padding : float;
      (** extra storage+creation charged to reach the fixed footprint of a
          storage-constrained heuristic (0 when the class has none) *)
  rc_padding : float;  (** same for the replica constraint *)
  write_cost : float;  (** delta * update messages *)
  penalty : float;  (** gamma * lateness of uncovered reads *)
  open_cost : float;  (** zeta * number of nodes storing anything *)
  total : float;
  qos : float array;  (** per node: fraction of reads served in time *)
  avg_latency : float array;  (** per node: mean read latency, ms *)
  meets_goal : bool;
}

val evaluate : Permission.t -> placement -> evaluation

val respects_permissions : Permission.t -> placement -> bool
(** Whether every stored interval lies in the class's store support and
    every creation (0->1 transition) happens at a permitted interval.
    Rounding outputs must satisfy this; simulated heuristics may not
    (holding an object longer than useful is permitted wastefulness —
    it only costs them). *)
