type degraded = {
  down_count : int;
  served : float;
  late : float;
  unavailable : float;
  lateness_ms : float;
  violation : float;
  unavail_fraction : float;
  degraded_cost : float;
  cost_ratio : float;
}

let miss_penalty (spec : Mcperf.Spec.t) =
  let sys = spec.Mcperf.Spec.system in
  let nodes = Topology.System.node_count sys in
  let lmax = ref 0. in
  for n = 0 to nodes - 1 do
    for m = 0 to nodes - 1 do
      let l = sys.Topology.System.latency.(n).(m) in
      if Float.is_finite l && l > !lmax then lmax := l
    done
  done;
  let gamma = spec.Mcperf.Spec.costs.Mcperf.Spec.gamma in
  match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Qos { tlat_ms; _ } ->
    Float.max 1. (gamma *. Float.max 0. (!lmax -. tlat_ms))
  | Mcperf.Spec.Avg_latency _ -> 1.

let degrade ?base (perm : Mcperf.Permission.t) placement ~down =
  let spec = perm.Mcperf.Permission.spec in
  let sys = spec.Mcperf.Spec.system in
  let demand = spec.Mcperf.Spec.demand in
  let nodes = Mcperf.Spec.node_count spec in
  let origin = sys.Topology.System.origin in
  let weight = demand.Workload.Demand.weight in
  let costs = spec.Mcperf.Spec.costs in
  if Array.length down <> nodes then
    invalid_arg "Survive.degrade: down mask has wrong length";
  let base =
    match base with
    | Some b -> b
    | None -> Mcperf.Costing.evaluate perm placement
  in
  (* Failures never refund provisioned resources: everything but the
     latency penalty is sunk. *)
  let sunk = base.Mcperf.Costing.total -. base.Mcperf.Costing.penalty in
  let miss = miss_penalty spec in
  let tlat =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos { tlat_ms; _ } -> tlat_ms
    | Mcperf.Spec.Avg_latency _ -> infinity
  in
  let origin_up = not down.(origin) in
  let served = ref 0. and late = ref 0. and unavailable = ref 0. in
  let lateness = ref 0. in
  let total = ref 0. in
  Array.iteri
    (fun k cells ->
      let w = weight.(k) in
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          let n = c.Workload.Demand.node and i = c.Workload.Demand.interval in
          let rw = w *. c.Workload.Demand.count in
          total := !total +. rw;
          if down.(n) then unavailable := !unavailable +. rw
          else begin
            (* Closest surviving routable replica, origin fallback only
               while the origin is up — the Costing loop with a mask. *)
            let best =
              ref
                (if origin_up then sys.Topology.System.latency.(n).(origin)
                 else infinity)
            in
            for m = 0 to nodes - 1 do
              if
                m <> origin
                && (not down.(m))
                && perm.Mcperf.Permission.reach.(n).(m)
                && placement.(m).(k) land (1 lsl i) <> 0
                && sys.Topology.System.latency.(n).(m) < !best
              then best := sys.Topology.System.latency.(n).(m)
            done;
            if Float.is_finite !best then
              if !best <= tlat then served := !served +. rw
              else begin
                late := !late +. rw;
                lateness := !lateness +. ((!best -. tlat) *. rw)
              end
            else unavailable := !unavailable +. rw
          end)
        cells)
    demand.Workload.Demand.reads;
  let degraded_cost =
    sunk
    +. (costs.Mcperf.Spec.gamma *. !lateness)
    +. (miss *. !unavailable)
  in
  let base_total = base.Mcperf.Costing.total in
  {
    down_count =
      Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 down;
    served = !served;
    late = !late;
    unavailable = !unavailable;
    lateness_ms = !lateness;
    violation = (if !total > 0. then (!late +. !unavailable) /. !total else 0.);
    unavail_fraction = (if !total > 0. then !unavailable /. !total else 0.);
    degraded_cost;
    cost_ratio =
      (if base_total > 0. then degraded_cost /. base_total
       else 1. +. degraded_cost);
  }

type assessment = {
  scenarios : int;
  base_cost : float;
  expected_cost : float;
  mean_violation : float;
  worst_violation : float;
  mean_unavailable : float;
  worst_cost_ratio : float;
  fragility : float;
}

let assess (perm : Mcperf.Permission.t) placement ~scenarios =
  let count = Array.length scenarios in
  if count = 0 then invalid_arg "Survive.assess: empty scenario set";
  let base = Mcperf.Costing.evaluate perm placement in
  let results =
    List.map
      (fun (s : Scenario.t) -> degrade ~base perm placement ~down:s.Scenario.down)
      (Array.to_list scenarios)
  in
  let n = float_of_int count in
  let sum f = List.fold_left (fun acc d -> acc +. f d) 0. results in
  let worst f = List.fold_left (fun acc d -> Float.max acc (f d)) 0. results in
  let expected_cost = sum (fun d -> d.degraded_cost) /. n in
  let base_cost = base.Mcperf.Costing.total in
  {
    scenarios = count;
    base_cost;
    expected_cost;
    mean_violation = sum (fun d -> d.violation) /. n;
    worst_violation = worst (fun d -> d.violation);
    mean_unavailable = sum (fun d -> d.unavail_fraction) /. n;
    worst_cost_ratio = worst (fun d -> d.cost_ratio);
    fragility =
      (if base_cost > 0. then (expected_cost /. base_cost) -. 1.
       else expected_cost);
  }
