type deployed = {
  name : string;
  parameter : int;
  cost : float;
  worst_qos : float;
  detail : Heuristics.Strategy.detail;
  placement : Mcperf.Costing.placement;
}

(* Every heuristic run gets a span tagged with its name and, on success,
   the provisioning parameter and cost it settled on — enough to see
   from a trace which heuristic dominated a sweep's wall-clock. *)
let m_runs = lazy (Obs.Metrics.counter "sim.heuristic_runs")

let with_run_obs name f =
  Obs.Metrics.incr (Lazy.force m_runs);
  let sp =
    Obs.Trace.span_begin "sim.heuristic"
      ~attrs:[ ("name", Obs.Trace.Str name) ]
  in
  match f () with
  | r ->
    Obs.Trace.span_end sp
      ~attrs:
        (match r with
        | None -> [ ("found", Obs.Trace.Bool false) ]
        | Some d ->
          [
            ("found", Obs.Trace.Bool true);
            ("parameter", Obs.Trace.Int d.parameter);
            ("cost", Obs.Trace.Float d.cost);
          ]);
    r
  | exception e ->
    Obs.Trace.span_end sp;
    raise e

(* The single deployment path: every heuristic is a strategy, and a
   deployment is the minimal provisioning parameter whose verdict on the
   workload meets the goal. The strategy is prepared once; the verdict
   of the parameter the search returns is the one its probe computed. *)
let deploy ~(factory : Heuristics.Strategy.factory) ~ctx ~workload () =
  let module S = Heuristics.Strategy in
  let strategy = factory ctx in
  with_run_obs strategy.S.name @@ fun () ->
  let prepared = strategy.S.prepare workload in
  let met = Hashtbl.create 16 in
  let feasible p =
    let v = prepared.S.assess p in
    if v.S.meets_goal then Hashtbl.replace met p v;
    v.S.meets_goal
  in
  match Search.min_feasible_int ~lo:0 ~hi:prepared.S.ceiling feasible with
  | None -> None
  | Some parameter ->
    let v = Hashtbl.find met parameter in
    Some
      {
        name = strategy.S.name;
        parameter;
        cost = v.S.cost;
        worst_qos = v.S.worst_qos;
        detail = v.S.detail;
        placement = v.S.placement;
      }

let deploy_offline ?placeable ?trace ~factory ~spec () =
  deploy ~factory
    ~ctx:(Heuristics.Strategy.Context.of_spec ?placeable spec)
    ~workload:(Heuristics.Strategy.workload_of_spec ?trace spec)
    ()

let greedy_replica ~spec () =
  deploy_offline ~factory:Heuristics.Greedy_replica.strategy ~spec ()

(* --- degradation replay ------------------------------------------------- *)

type replay_step = {
  step : int;
  down_count : int;
  violation : float;
  unavail_fraction : float;
  degraded_cost : float;
}

type replay = {
  steps : replay_step array;
  base_cost : float;
  mean_violation : float;
  worst_violation : float;
  mean_unavail : float;
  unavail_steps : int;
  mean_cost_ratio : float;
  worst_cost_ratio : float;
}

let m_replay_steps = lazy (Obs.Metrics.counter "sim.replay_steps")

let degradation_replay ~(perm : Mcperf.Permission.t) ~placement
    ~(timeline : Avail.Scenario.timeline) () =
  let nsteps = timeline.Avail.Scenario.steps in
  if nsteps = 0 then invalid_arg "Runner.degradation_replay: empty timeline";
  let sp =
    Obs.Trace.span_begin "sim.degradation_replay"
      ~attrs:[ ("steps", Obs.Trace.Int nsteps) ]
  in
  let base = Mcperf.Costing.evaluate perm placement in
  let steps =
    Array.mapi
      (fun t down ->
        let d = Avail.Survive.degrade ~base perm placement ~down in
        {
          step = t;
          down_count = d.Avail.Survive.down_count;
          violation = d.Avail.Survive.violation;
          unavail_fraction = d.Avail.Survive.unavail_fraction;
          degraded_cost = d.Avail.Survive.degraded_cost;
        })
      timeline.Avail.Scenario.down
  in
  Obs.Metrics.incr ~by:nsteps (Lazy.force m_replay_steps);
  let n = float_of_int nsteps in
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0. steps in
  let worst_of f = Array.fold_left (fun acc s -> Float.max acc (f s)) 0. steps in
  let base_cost = base.Mcperf.Costing.total in
  let ratio s =
    if base_cost > 0. then s.degraded_cost /. base_cost
    else 1. +. s.degraded_cost
  in
  let r =
    {
      steps;
      base_cost;
      mean_violation = sum (fun s -> s.violation) /. n;
      worst_violation = worst_of (fun s -> s.violation);
      mean_unavail = sum (fun s -> s.unavail_fraction) /. n;
      unavail_steps =
        Array.fold_left
          (fun acc s -> if s.unavail_fraction > 0. then acc + 1 else acc)
          0 steps;
      mean_cost_ratio = sum ratio /. n;
      worst_cost_ratio = worst_of ratio;
    }
  in
  Obs.Trace.span_end sp
    ~attrs:
      [
        ("worst_violation", Obs.Trace.Float r.worst_violation);
        ("mean_cost_ratio", Obs.Trace.Float r.mean_cost_ratio);
        ("unavail_steps", Obs.Trace.Int r.unavail_steps);
      ];
  r
