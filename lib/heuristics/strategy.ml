module Context = struct
  type t = {
    system : Topology.System.t;
    costs : Mcperf.Spec.costs;
    goal : Mcperf.Spec.goal;
    placeable : bool array option;
    parameter : int;
  }

  let make ~system ?placeable ?(costs = Mcperf.Spec.default_costs) ~goal () =
    { system; costs; goal; placeable; parameter = 0 }

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

type delta = {
  epoch : int;
  start_interval : int;
  intervals : int;
  demand : Workload.Demand.t;
  chunk : Workload.Trace.t option;
  trace : Workload.Trace.t option;
}

let delta_of_spec ?trace (spec : Mcperf.Spec.t) =
  {
    epoch = 0;
    start_interval = 0;
    intervals = Mcperf.Spec.interval_count spec;
    demand = spec.Mcperf.Spec.demand;
    chunk = trace;
    trace;
  }

type detail =
  | Evaluation of Mcperf.Costing.evaluation
  | Cache_outcome of Event_cache.outcome

type verdict = {
  cost : float;
  worst_qos : float;
  meets_goal : bool;
  placement : Mcperf.Costing.placement option;
  detail : detail;
}

module type S = sig
  type state

  val name : string
  val heuristic_class : Mcperf.Classes.t
  val init : Context.t -> state
  val observe : state -> delta -> state
  val parameter_ceiling : state -> int
  val assess : state -> verdict
end

type instance = Instance : (module S with type state = 's) * 's -> instance
type factory = Context.t -> instance

let name (Instance ((module M), _)) = M.name
let heuristic_class (Instance ((module M), _)) = M.heuristic_class
let observe (Instance ((module M), st)) d = Instance ((module M), M.observe st d)
let parameter_ceiling (Instance ((module M), st)) = M.parameter_ceiling st
let assess (Instance ((module M), st)) = M.assess st

let worst_qos arr = Array.fold_left Float.min 1. arr

let spec_of (ctx : Context.t) demand =
  Mcperf.Spec.make ~system:ctx.Context.system ~demand ~costs:ctx.Context.costs
    ~goal:ctx.Context.goal ()

(* Shared skeleton for the placement heuristics (greedy global / greedy
   replica / proportional): state is the context plus the latest
   cumulative demand; [assess] rebuilds the spec, computes the class
   permissions, places, and prices the placement. The digests in
   test/fixtures/strategy_deployments.golden pin every deployment bit
   for bit. *)
module type PLACEMENT_RULE = sig
  val name : string
  val heuristic_class : Mcperf.Classes.t
  val place : Mcperf.Permission.t -> parameter:int -> Mcperf.Costing.placement
  val parameter_ceiling : Mcperf.Permission.t -> int
end

module Of_placement_rule (R : PLACEMENT_RULE) = struct
  type state = { ctx : Context.t; demand : Workload.Demand.t option }

  let name = R.name
  let heuristic_class = R.heuristic_class
  let init ctx = { ctx; demand = None }
  let observe st (d : delta) = { st with demand = Some d.demand }

  let spec st =
    match st.demand with
    | Some d -> spec_of st.ctx d
    | None -> invalid_arg (R.name ^ ": no workload observed yet")

  let perm st =
    let spec = spec st in
    Mcperf.Permission.compute ?placeable:st.ctx.Context.placeable spec
      heuristic_class

  let parameter_ceiling st = R.parameter_ceiling (perm st)

  let assess st =
    let perm = perm st in
    let placement = R.place perm ~parameter:st.ctx.Context.parameter in
    let e = Mcperf.Costing.evaluate perm placement in
    {
      cost = e.Mcperf.Costing.total;
      worst_qos = worst_qos e.Mcperf.Costing.qos;
      meets_goal = e.Mcperf.Costing.meets_goal;
      placement = Some placement;
      detail = Evaluation e;
    }
end

let of_placement_rule (module R : PLACEMENT_RULE) : factory =
 fun ctx ->
  let module M = Of_placement_rule (R) in
  Instance ((module M), M.init ctx)
