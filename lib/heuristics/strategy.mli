(** The strategy API: every deployed heuristic behind one interface.

    A strategy is a record of its name, its heuristic class and one pure
    function of the cumulative workload ({!workload}), [prepare]. It does
    the work that does not depend on the heuristic's provisioning
    parameter once, and returns the search ceiling of that parameter and
    the priced placement decision at any parameter (the verdict's
    [placement]). A {!factory} builds it from a {!Context.t} (topology,
    cost parameters, performance goal and deployment restrictions). Each
    re-placement is a decision on the workload observed so far, so a
    strategy keeps no state: {!Sim.Runner.deploy} prepares once and
    searches the minimal goal-meeting parameter on one workload, offline
    over the whole trace and online once per epoch ([Online.Engine]).

    The same workload, context and parameter always yield the same
    verdict, which is what makes epoch output byte-identical across
    worker counts. *)

module Context : sig
  type t = {
    system : Topology.System.t;
    costs : Mcperf.Spec.costs;
    goal : Mcperf.Spec.goal;
    placeable : bool array option;
        (** deployment restriction: sites allowed to hold replicas *)
  }

  val make : system:Topology.System.t -> goal:Mcperf.Spec.goal -> unit -> t
  (** The paper's case-study costs, every node placeable. *)

  val of_spec : ?placeable:bool array -> Mcperf.Spec.t -> t
  (** Context of an offline spec (same system/costs/goal). *)
end

type workload = {
  intervals : int;  (** cumulative interval count *)
  demand : Workload.Demand.t;  (** cumulative interval-bucketed demand *)
  trace : Workload.Trace.t option;
      (** cumulative event trace; required by event-level (caching)
          strategies, optional for interval-level ones *)
}

val workload_of_spec : ?trace:Workload.Trace.t -> Mcperf.Spec.t -> workload
(** The offline case: the spec's whole horizon. *)

type detail =
  | Evaluation of Mcperf.Costing.evaluation
      (** interval-level strategies, priced by {!Mcperf.Costing} *)
  | Cache_outcome of Event_cache.outcome
      (** event-level strategies, priced by the cache simulator *)

type verdict = {
  cost : float;
  worst_qos : float;
  meets_goal : bool;
  placement : Mcperf.Costing.placement;
  detail : detail;
}

type prepared = {
  ceiling : int;
      (** Largest provisioning parameter worth trying on the workload —
          the search's upper bound. *)
  assess : int -> verdict;
      (** The placement decision at a provisioning parameter, priced.
          The parameter is the heuristic's one provisioning knob:
          per-node capacity for storage-constrained strategies, replicas
          per object for replica-constrained ones, cache capacity for
          caching, total replica budget for proportional. *)
}

type t = {
  name : string;
  heuristic_class : Mcperf.Classes.t;
      (** The heuristic class whose lower bound this strategy is compared
          against (the paper's Table 3 pairing). *)
  prepare : workload -> prepared;
      (** The strategy on one workload. The work that does not depend on
          the parameter (class permissions, event-interval ranges,
          prefetch lists) runs here, once; [assess] reuses it at every
          parameter. *)
}

type factory = Context.t -> t

val heuristic_class : t -> Mcperf.Classes.t

val worst_qos : float array -> float
(** Minimum per-node QoS, 1. when empty (the runner's reporting
    convention). *)

val of_placement_rule :
  name:string ->
  heuristic_class:Mcperf.Classes.t ->
  place:(Mcperf.Permission.t -> parameter:int -> Mcperf.Costing.placement) ->
  ceiling:(Mcperf.Permission.t -> int) ->
  factory
(** Adapter for the interval-level placement heuristics: supply the raw
    placement rule, its search ceiling (given the class permissions on
    the workload; the permission record carries the spec) and its class.
    [prepare] builds the spec from the workload's demand and computes the
    class permissions once; [assess] places at the parameter and prices
    the placement through {!Mcperf.Costing.evaluate} under the rule's
    class. *)
