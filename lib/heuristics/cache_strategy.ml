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
  let module M = struct
    type state = {
      ctx : Strategy.Context.t;
      trace : Workload.Trace.t option;
      intervals : int;
    }

    let name = cfg.label
    let heuristic_class = cfg.cls
    let init ctx = { ctx; trace = None; intervals = 0 }

    let observe st (d : Strategy.delta) =
      match d.Strategy.trace with
      | None ->
        invalid_arg (cfg.label ^ ": event-level strategy needs a trace")
      | Some _ as trace -> { st with trace; intervals = d.Strategy.intervals }

    let outcome st =
      match st.trace with
      | None -> invalid_arg (cfg.label ^ ": no workload observed yet")
      | Some trace ->
        let ctx = st.ctx in
        let tlat_ms, _ = goal_parts ctx.Strategy.Context.goal in
        Event_cache.simulate ~system:ctx.Strategy.Context.system ~trace
          ~intervals:st.intervals ~costs:ctx.Strategy.Context.costs ~tlat_ms
          ~capacity:ctx.Strategy.Context.parameter ~mode:cfg.mode
          ~prefetch:cfg.prefetch ?placeable:ctx.Strategy.Context.placeable
          ~policy:cfg.policy ()

    let parameter_ceiling st =
      match st.trace with
      | None -> invalid_arg (cfg.label ^ ": no workload observed yet")
      | Some trace -> Workload.Trace.object_count trace

    let assess st =
      let o = outcome st in
      {
        Strategy.cost = o.Event_cache.provisioned_cost;
        worst_qos = Strategy.worst_qos o.Event_cache.qos;
        meets_goal = meets st.ctx.Strategy.Context.goal o;
        placement = o.Event_cache.placement;
        detail = Strategy.Cache_outcome o;
      }
  end in
  fun ctx -> Strategy.Instance ((module M), M.init ctx)

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
