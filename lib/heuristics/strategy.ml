module Context = struct
  type t = {
    system : Topology.System.t;
    costs : Mcperf.Spec.costs;
    goal : Mcperf.Spec.goal;
    placeable : bool array option;
    parameter : int;
  }

  let make ~system ~goal () =
    {
      system;
      costs = Mcperf.Spec.default_costs;
      goal;
      placeable = None;
      parameter = 0;
    }

  let of_spec ?placeable (spec : Mcperf.Spec.t) =
    {
      system = spec.Mcperf.Spec.system;
      costs = spec.Mcperf.Spec.costs;
      goal = spec.Mcperf.Spec.goal;
      placeable;
      parameter = 0;
    }

  let with_parameter t parameter =
    if parameter < 0 then
      invalid_arg "Strategy.Context.with_parameter: parameter must be >= 0";
    { t with parameter }
end

type workload = {
  intervals : int;
  demand : Workload.Demand.t;
  trace : Workload.Trace.t option;
}

let workload_of_spec ?trace (spec : Mcperf.Spec.t) =
  {
    intervals = Mcperf.Spec.interval_count spec;
    demand = spec.Mcperf.Spec.demand;
    trace;
  }

type detail =
  | Evaluation of Mcperf.Costing.evaluation
  | Cache_outcome of Event_cache.outcome

type verdict = {
  cost : float;
  worst_qos : float;
  meets_goal : bool;
  placement : Mcperf.Costing.placement;
  detail : detail;
}

type t = {
  name : string;
  heuristic_class : Mcperf.Classes.t;
  parameter_ceiling : workload -> int;
  assess : workload -> verdict;
}

type factory = Context.t -> t

let heuristic_class t = t.heuristic_class
let worst_qos arr = Array.fold_left Float.min 1. arr

(* Shared skeleton for the placement heuristics (greedy global / greedy
   replica / proportional): build the spec from the workload's demand,
   compute the class permissions, place, and price the placement. The
   digests in test/fixtures/strategy_deployments.golden pin every
   deployment bit for bit. *)
let of_placement_rule ~name ~heuristic_class ~place ~parameter_ceiling :
    factory =
 fun (ctx : Context.t) ->
  let perm (w : workload) =
    Mcperf.Permission.compute ?placeable:ctx.Context.placeable
      (Mcperf.Spec.make ~system:ctx.Context.system ~demand:w.demand
         ~costs:ctx.Context.costs ~goal:ctx.Context.goal ())
      heuristic_class
  in
  {
    name;
    heuristic_class;
    parameter_ceiling = (fun w -> parameter_ceiling (perm w));
    assess =
      (fun w ->
        let perm = perm w in
        let placement = place perm ~parameter:ctx.Context.parameter in
        let e = Mcperf.Costing.evaluate perm placement in
        {
          cost = e.Mcperf.Costing.total;
          worst_qos = worst_qos e.Mcperf.Costing.qos;
          meets_goal = e.Mcperf.Costing.meets_goal;
          placement;
          detail = Evaluation e;
        });
  }
