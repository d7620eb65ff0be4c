(** The strategy-object API: every deployed heuristic behind one
    interface.

    A strategy is a first-class module ({!S}) with an opaque state:
    [init] builds the state from a {!Context.t} (topology, cost
    parameters, performance goal, deployment restrictions, and the
    heuristic's one provisioning parameter), [observe] folds in an epoch
    of workload ({!delta}), and [assess] prices the current placement
    decision (the verdict's [placement]). The offline runner
    ({!Sim.Runner}) drives one observe over the whole trace; the online
    engine ([Online.Engine]) drives one observe per epoch.

    Strategies are pure state machines: observing the same deltas in the
    same order yields the same placement, which is what makes epoch
    output byte-identical across worker counts. *)

module Context : sig
  type t = {
    system : Topology.System.t;
    costs : Mcperf.Spec.costs;
    goal : Mcperf.Spec.goal;
    placeable : bool array option;
        (** deployment restriction: sites allowed to hold replicas *)
    parameter : int;
        (** the heuristic's provisioning knob — per-node capacity for
            storage-constrained strategies, replicas per object for
            replica-constrained ones, cache capacity for caching, total
            replica budget for proportional *)
  }

  val make :
    system:Topology.System.t ->
    ?placeable:bool array ->
    ?costs:Mcperf.Spec.costs ->
    goal:Mcperf.Spec.goal ->
    unit ->
    t
  (** Defaults: the paper's case-study costs. The parameter starts at 0;
      {!with_parameter} sets it. *)

  val of_spec : ?placeable:bool array -> Mcperf.Spec.t -> t
  (** Context of an offline spec (same system/costs/goal), parameter 0. *)

  val with_parameter : t -> int -> t
  (** Same context at a different provisioning parameter — how the
      min-feasible search explores the knob. *)
end

type delta = {
  epoch : int;  (** 0-based epoch index *)
  start_interval : int;  (** first interval this epoch contributes *)
  intervals : int;  (** cumulative interval count after this epoch *)
  demand : Workload.Demand.t;  (** cumulative interval-bucketed demand *)
  chunk : Workload.Trace.t option;
      (** this epoch's events alone (absolute times); [None] when the
          driver only has interval-level demand *)
  trace : Workload.Trace.t option;
      (** cumulative event trace; required by event-level (caching)
          strategies, optional for interval-level ones *)
}

val delta_of_spec : ?trace:Workload.Trace.t -> Mcperf.Spec.t -> delta
(** The offline case as a single epoch covering the whole horizon. *)

type detail =
  | Evaluation of Mcperf.Costing.evaluation
      (** interval-level strategies, priced by {!Mcperf.Costing} *)
  | Cache_outcome of Event_cache.outcome
      (** event-level strategies, priced by the cache simulator *)

type verdict = {
  cost : float;
  worst_qos : float;
  meets_goal : bool;
  placement : Mcperf.Costing.placement option;
      (** [None] only for cache runs past the 62-interval bitmask limit *)
  detail : detail;
}

module type S = sig
  type state

  val name : string

  val heuristic_class : Mcperf.Classes.t
  (** The heuristic class whose lower bound this strategy is compared
      against (the paper's Table 3 pairing). *)

  val init : Context.t -> state
  val observe : state -> delta -> state

  val parameter_ceiling : state -> int
  (** Largest provisioning parameter worth trying on the observed
      workload — the search's upper bound. *)

  val assess : state -> verdict
  (** Raises [Invalid_argument] before any workload is observed. *)
end

type instance = Instance : (module S with type state = 's) * 's -> instance
(** A strategy packed with its state; the only shape drivers handle. *)

type factory = Context.t -> instance

val name : instance -> string
val heuristic_class : instance -> Mcperf.Classes.t
val observe : instance -> delta -> instance
val parameter_ceiling : instance -> int
val assess : instance -> verdict

val worst_qos : float array -> float
(** Minimum per-node QoS, 1. when empty (the runner's reporting
    convention). *)

(** Adapter for the interval-level placement heuristics: supply the raw
    placement rule and its class; the adapter rebuilds the spec from the
    latest cumulative demand and prices placements through
    {!Mcperf.Costing.evaluate} under the rule's class. *)
module type PLACEMENT_RULE = sig
  val name : string
  val heuristic_class : Mcperf.Classes.t
  val place : Mcperf.Permission.t -> parameter:int -> Mcperf.Costing.placement

  val parameter_ceiling : Mcperf.Permission.t -> int
  (** Search ceiling, given the class permissions on the observed
      workload (the permission record carries the spec). *)
end

val of_placement_rule : (module PLACEMENT_RULE) -> factory
