(** MC-PERF problem specifications.

    A spec bundles the three inputs of the paper's methodology — system,
    workload, performance goal — with the unit costs of the cost function
    (Table 1): α storage, β replica creation, γ late-access penalty,
    δ update message, ζ node enabling. *)

type costs = {
  alpha : float;  (** storing one object for one interval *)
  beta : float;  (** creating one replica *)
  gamma : float;  (** penalty per ms above the threshold, per late read *)
  delta : float;  (** cost per update message (write x replica) *)
  zeta : float;  (** enabling a node for placement *)
}

val default_costs : costs
(** The paper's case-study costs: α = β = 1, everything else 0. *)

type goal =
  | Qos of { tlat_ms : float; fraction : float }
      (** Constraint (2): at least [fraction] of each user's reads are
          served within [tlat_ms]. [fraction] in [\[0, 1\]]. *)
  | Avg_latency of { tavg_ms : float }
      (** Constraints (7)–(10): each user's average read latency is at
          most [tavg_ms]. *)

type t = {
  system : Topology.System.t;
  demand : Workload.Demand.t;
  costs : costs;
  goal : goal;
}

val max_intervals : int
(** 62: the most evaluation intervals a spec may have, since permissions
    and placements keep one bit per interval in an OCaml [int]. *)

val make :
  system:Topology.System.t ->
  demand:Workload.Demand.t ->
  ?costs:costs ->
  goal:goal ->
  unit ->
  t
(** Validates: node counts agree, demand has at least one read, costs are
    non-negative with [alpha > 0. || beta > 0.], goal parameters are in
    range (a NaN cost or goal parameter is rejected), and the interval
    count fits the bitset-based permission machinery (at most
    {!max_intervals}). *)

val node_count : t -> int
val interval_count : t -> int
val object_count : t -> int
