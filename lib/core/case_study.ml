type workload = Web | Group

let workload_name = function Web -> "WEB" | Group -> "GROUP"

type t = {
  system : Topology.System.t;
  workload : workload;
  trace : Workload.Trace.t;
  demand : Workload.Demand.t;
  bound_demand : Workload.Demand.t;
}

let make ?(seed = 2004) ?(nodes = 20) ?(intervals = 24) ?(scale = 0.1)
    ?bound_classes workload =
  (* WEB's bound models use exact pattern aggregation (valid bounds; the
     tail classes have tiny store supports, so the models stay tractable);
     GROUP's uniformly popular objects cluster into a handful of classes
     with negligible distortion and a large speedup. *)
  let bound_classes =
    match bound_classes with
    | Some c -> c
    | None -> ( match workload with Web -> 1000 | Group -> 24)
  in
  let rng = Util.Prng.create ~seed in
  let topo_rng = Util.Prng.split rng in
  let trace_rng = Util.Prng.split rng in
  let graph =
    Topology.Generate.as_like ~rng:topo_rng ~nodes
      ~latency:Topology.Generate.default_hop_latency
  in
  let system = Topology.System.make graph in
  (* WEB keeps 2.5x more objects than the request scale so the heavy tail
     survives downscaling (see Synthesize.scale_spec); GROUP objects are
     uniformly popular, so they scale with the requests. *)
  let trace =
    match workload with
    | Web ->
      let object_factor = Float.min 1. (2.5 *. scale) in
      Workload.Synthesize.web ~rng:trace_rng
        (Workload.Synthesize.scale_spec ~object_factor
           { Workload.Synthesize.web_spec with nodes }
           ~factor:scale)
    | Group ->
      Workload.Synthesize.group ~rng:trace_rng
        (Workload.Synthesize.scale_spec
           { Workload.Synthesize.group_spec with nodes }
           ~factor:scale)
  in
  let demand = Workload.Demand.of_trace ~intervals trace in
  let bound_demand =
    let exact = Workload.Aggregate.exact demand in
    if exact.Workload.Aggregate.demand.Workload.Demand.objects <= bound_classes
    then exact.Workload.Aggregate.demand
    else
      (Workload.Aggregate.by_popularity ~classes:bound_classes demand)
        .Workload.Aggregate.demand
  in
  { system; workload; trace; demand; bound_demand }

let qos_spec t ?(tlat_ms = 150.) ~fraction ~for_bounds () =
  let demand = if for_bounds then t.bound_demand else t.demand in
  Mcperf.Spec.make ~system:t.system ~demand
    ~goal:(Mcperf.Spec.Qos { tlat_ms; fraction })
    ()

let qos_points = [ 0.95; 0.99; 0.999; 0.9999; 0.99999 ]
