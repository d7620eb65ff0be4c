let goal_parts (goal : Mcperf.Spec.goal) =
  match goal with
  | Mcperf.Spec.Qos { tlat_ms; fraction } -> (tlat_ms, `Qos fraction)
  | Mcperf.Spec.Avg_latency { tavg_ms } -> (tavg_ms, `Avg tavg_ms)

let meets goal (o : Event_cache.outcome) =
  match goal_parts goal with
  | _, `Qos fraction -> Event_cache.meets_qos o ~fraction
  | _, `Avg tavg ->
    Array.for_all (fun l -> l <= tavg +. 1e-9) o.Event_cache.avg_latency

type config = {
  label : string;
  mode : Event_cache.mode;
  prefetch : bool;
  policy : Policy_cache.kind;
  cls : Mcperf.Classes.t;
}

let make (cfg : config) : Strategy.factory =
 fun ctx ->
  let tlat_ms, _ = goal_parts ctx.Strategy.Context.goal in
  let prepare (w : Strategy.workload) =
    let trace =
      match w.Strategy.trace with
      | Some trace -> trace
      | None -> invalid_arg (cfg.label ^ ": event-level strategy needs a trace")
    in
    let plan =
      Event_cache.plan ~system:ctx.Strategy.Context.system ~trace
        ~intervals:w.Strategy.intervals ~costs:ctx.Strategy.Context.costs
        ~tlat_ms ~mode:cfg.mode ~prefetch:cfg.prefetch
        ?placeable:ctx.Strategy.Context.placeable ~policy:cfg.policy ()
    in
    {
      Strategy.ceiling = Workload.Trace.object_count trace;
      assess =
        (fun capacity ->
          let o = Event_cache.replay plan ~capacity in
          {
            Strategy.cost = o.Event_cache.provisioned_cost;
            worst_qos = Strategy.worst_qos o.Event_cache.qos;
            meets_goal = meets ctx.Strategy.Context.goal o;
            placement = o.Event_cache.placement;
            detail = Strategy.Cache_outcome o;
          });
    }
  in
  { Strategy.name = cfg.label; heuristic_class = cfg.cls; prepare }

let reactive = Mcperf.Classes.allow_intra_interval_reaction

let policy kind =
  make
    {
      label = Policy_cache.kind_name kind ^ "-caching";
      mode = Event_cache.Local;
      prefetch = false;
      policy = kind;
      cls = reactive Mcperf.Classes.caching;
    }

let lru = policy Policy_cache.Lru

let cooperative =
  make
    {
      label = "cooperative-caching";
      mode = Event_cache.Cooperative;
      prefetch = false;
      policy = Policy_cache.Lru;
      cls = reactive Mcperf.Classes.cooperative_caching;
    }

let prefetching =
  make
    {
      label = "caching-prefetch";
      mode = Event_cache.Local;
      prefetch = true;
      policy = Policy_cache.Lru;
      cls = reactive Mcperf.Classes.caching_prefetch;
    }

let cooperative_prefetching =
  make
    {
      label = "cooperative-caching-prefetch";
      mode = Event_cache.Cooperative;
      prefetch = true;
      policy = Policy_cache.Lru;
      cls = reactive Mcperf.Classes.cooperative_caching_prefetch;
    }

let hierarchical =
  make
    {
      label = "hierarchical-caching";
      mode = Event_cache.Hierarchical { cluster_radius_ms = 150. };
      prefetch = false;
      policy = Policy_cache.Lru;
      cls = reactive Mcperf.Classes.cooperative_caching;
    }
