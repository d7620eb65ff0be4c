type costs = {
  alpha : float;
  beta : float;
  gamma : float;
  delta : float;
  zeta : float;
}

let default_costs = { alpha = 1.; beta = 1.; gamma = 0.; delta = 0.; zeta = 0. }

type goal =
  | Qos of { tlat_ms : float; fraction : float }
  | Avg_latency of { tavg_ms : float }

type t = {
  system : Topology.System.t;
  demand : Workload.Demand.t;
  costs : costs;
  goal : goal;
}

let max_intervals = 62

let make ~system ~demand ?(costs = default_costs) ~goal () =
  if Topology.System.node_count system <> demand.Workload.Demand.nodes then
    invalid_arg "Spec.make: system and demand disagree on node count";
  if Workload.Demand.total_reads demand <= 0. then
    invalid_arg "Spec.make: demand has no reads";
  if demand.Workload.Demand.intervals > max_intervals then
    invalid_arg "Spec.make: at most 62 evaluation intervals are supported";
  let { alpha; beta; gamma; delta; zeta } = costs in
  (* Every range check is written so that NaN fails it. *)
  if
    not (alpha >= 0. && beta >= 0. && gamma >= 0. && delta >= 0. && zeta >= 0.)
  then invalid_arg "Spec.make: costs must be non-negative";
  if alpha = 0. && beta = 0. then
    invalid_arg "Spec.make: at least one of alpha, beta must be positive";
  (match goal with
  | Qos { tlat_ms; fraction } ->
    if not (tlat_ms >= 0.) then
      invalid_arg "Spec.make: latency threshold must be >= 0";
    if not (fraction >= 0. && fraction <= 1.) then
      invalid_arg "Spec.make: QoS fraction must be in [0, 1]"
  | Avg_latency { tavg_ms } ->
    if not (tavg_ms >= 0.) then
      invalid_arg "Spec.make: average-latency goal must be >= 0");
  { system; demand; costs; goal }

let node_count t = Topology.System.node_count t.system
let interval_count t = t.demand.Workload.Demand.intervals
let object_count t = t.demand.Workload.Demand.objects
