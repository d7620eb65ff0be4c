module Context = struct
  type t = {
    system : Topology.System.t;
    costs : Mcperf.Spec.costs;
    goal : Mcperf.Spec.goal;
    placeable : bool array option;
  }

  let make ~system ~goal () =
    {
      system;
      costs = Mcperf.Spec.default_costs;
      goal;
      placeable = None;
    }

  let of_spec ?placeable (spec : Mcperf.Spec.t) =
    {
      system = spec.Mcperf.Spec.system;
      costs = spec.Mcperf.Spec.costs;
      goal = spec.Mcperf.Spec.goal;
      placeable;
    }
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

type prepared = { ceiling : int; assess : int -> verdict }

type t = {
  name : string;
  heuristic_class : Mcperf.Classes.t;
  prepare : workload -> prepared;
}

type factory = Context.t -> t

let heuristic_class t = t.heuristic_class
let worst_qos arr = Array.fold_left Float.min 1. arr

(* Shared skeleton for the placement heuristics (greedy global / greedy
   replica / proportional): build the spec from the workload's demand and
   compute the class permissions once, then place and price at each
   parameter. The digests in test/fixtures/strategy_deployments.golden
   pin every deployment bit for bit. *)
let of_placement_rule ~name ~heuristic_class ~place ~ceiling : factory =
 fun (ctx : Context.t) ->
  let prepare (w : workload) =
    let perm =
      Mcperf.Permission.compute ?placeable:ctx.Context.placeable
        (Mcperf.Spec.make ~system:ctx.Context.system ~demand:w.demand
           ~costs:ctx.Context.costs ~goal:ctx.Context.goal ())
        heuristic_class
    in
    {
      ceiling = ceiling perm;
      assess =
        (fun parameter ->
          let placement = place perm ~parameter in
          let e = Mcperf.Costing.evaluate perm placement in
          {
            cost = e.Mcperf.Costing.total;
            worst_qos = worst_qos e.Mcperf.Costing.qos;
            meets_goal = e.Mcperf.Costing.meets_goal;
            placement;
            detail = Evaluation e;
          });
    }
  in
  { name; heuristic_class; prepare }
