(** Deployed-heuristic evaluation: run an actual heuristic against the
    case study, find its minimal resource parameter that meets the goal,
    and report its cost (the data of Figure 2).

    There is one route: {!deploy} (or {!deploy_offline} on a spec) with a
    {!Heuristics.Strategy.factory}, taken from a heuristic module (e.g.
    [Heuristics.Greedy_global.strategy]) or from
    {!Heuristics.Registry.builtin}; the online engine ([Online.Engine])
    calls {!deploy} once per strategy and epoch. Caching heuristics are
    simulated at event granularity on the request trace; the centralized
    greedy heuristics place at interval granularity on the bucketed
    demand and are costed by {!Mcperf.Costing} under their class, so
    their costs are directly comparable to the class lower bounds.

    Every entry point runs sequentially in the calling process: one
    deployment is one bisection ({!Search}), and one replay one pass over
    the timeline. Callers that want parallelism fan out over whole
    deployments — a figure's QoS points, or one task per heuristic — with
    {!Util.Parallel}. *)

type deployed = {
  name : string;
  parameter : int;  (** capacity (objects) or replication factor *)
  cost : float;
  worst_qos : float;  (** min per-user QoS achieved *)
  detail : Heuristics.Strategy.detail;
  placement : Mcperf.Costing.placement;
      (** the interval-granularity placement the deployment settled on —
          cache heuristics report their end-of-interval contents, the
          greedy heuristics their placed replicas — so every deployed
          heuristic can be re-priced under failure scenarios
          ({!Avail.Survive}, {!degradation_replay}) *)
}

val deploy :
  factory:Heuristics.Strategy.factory ->
  ctx:Heuristics.Strategy.Context.t ->
  workload:Heuristics.Strategy.workload ->
  unit ->
  deployed option
(** The deployment path, offline and online alike: build the strategy,
    prepare it once on the workload, and bisect its [assess] for the
    minimal parameter whose verdict meets the goal; the result carries
    the verdict of that parameter's probe. [None] when even the
    strategy's own parameter ceiling fails. *)

val deploy_offline :
  ?placeable:bool array ->
  ?trace:Workload.Trace.t ->
  factory:Heuristics.Strategy.factory ->
  spec:Mcperf.Spec.t ->
  unit ->
  deployed option
(** [deploy] on the spec's whole horizon ([trace] is required by
    event-level strategies). *)

val greedy_replica : spec:Mcperf.Spec.t -> unit -> deployed option
(** [deploy_offline ~factory:Heuristics.Greedy_replica.strategy]: the
    replica-constrained greedy placement with minimal uniform replication
    factor. Kept only because the steady benchmark's harness
    ([perfbench/harness.ml]) calls it; new callers use
    {!deploy_offline}. *)

type replay_step = {
  step : int;
  down_count : int;
  violation : float;
  unavail_fraction : float;
  degraded_cost : float;
}

type replay = {
  steps : replay_step array;  (** one per timeline step, in step order *)
  base_cost : float;  (** nominal evaluation total *)
  mean_violation : float;
  worst_violation : float;
  mean_unavail : float;
  unavail_steps : int;  (** steps with any unavailability mass *)
  mean_cost_ratio : float;
  worst_cost_ratio : float;
}

val degradation_replay :
  perm:Mcperf.Permission.t ->
  placement:Mcperf.Costing.placement ->
  timeline:Avail.Scenario.timeline ->
  unit ->
  replay
(** Replay a placement against a failure timeline ({!Avail.Scenario}):
    each step's down-mask re-prices the placement via
    {!Avail.Survive.degrade} (closest {e surviving} replica, unavailability
    mass on origin loss), emitting per-step violation/unavailability and
    the aggregate fragility picture over the {!Obs} pipe
    ([sim.degradation_replay] span, [sim.replay_steps] counter). Raises
    on an empty timeline. *)
