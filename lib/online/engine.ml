type config = {
  system : Topology.System.t;
  interval_s : float;
  epoch_intervals : int;
  goal : Mcperf.Spec.goal;
  strategies : (string * Heuristics.Strategy.factory) list;
}

let default_strategies =
  [
    ("greedy-global", Heuristics.Greedy_global.strategy);
    ("greedy-replica", Heuristics.Greedy_replica.strategy);
    ("proportional", Heuristics.Proportional.strategy);
    ("lru-caching", Heuristics.Cache_strategy.lru);
    ("cooperative-caching", Heuristics.Cache_strategy.cooperative);
  ]

let default ~system ~interval_s ~epoch_intervals ~goal () =
  if epoch_intervals <= 0 then
    invalid_arg "Engine.default: epoch_intervals must be positive";
  if interval_s <= 0. then
    invalid_arg "Engine.default: interval_s must be positive";
  { system; interval_s; epoch_intervals; goal; strategies = default_strategies }

type decision = {
  strategy : string;
  class_name : string;
  parameter : int option;  (** [None]: no parameter meets the goal *)
  cost : float option;
  worst_qos : float option;
  bound : float option;
  regret : float option;
}

type epoch = {
  index : int;
  intervals : int;
  chunk_events : int;
  total_events : int;
  working_set : int;
  bounds : (string * Bounds.Pipeline.t) list;
  decisions : decision list;
  search_s : float;
  solve_s : float;
}

type t = {
  config : config;
  mutable incr : Workload.Incremental.t;
  mutable trace : Workload.Trace.t option;
  mutable epochs : epoch list;  (** newest first *)
}

let create config =
  if config.epoch_intervals <= 0 then
    invalid_arg "Engine.create: epoch_intervals must be positive";
  if config.strategies = [] then
    invalid_arg "Engine.create: need at least one strategy";
  {
    config;
    incr =
      Workload.Incremental.create
        ~nodes:(Topology.System.node_count config.system)
        ~interval_s:config.interval_s;
    trace = None;
    epochs = [];
  }

let epochs t = List.rev t.epochs
let bound_solves t =
  List.fold_left (fun n e -> n + List.length e.bounds) 0 t.epochs

let m_epochs = lazy (Obs.Metrics.counter "online.epochs")
let m_decisions = lazy (Obs.Metrics.counter "online.decisions")
let m_solves = lazy (Obs.Metrics.counter "online.bound_solves")
let m_regret = lazy (Obs.Metrics.histogram "online.regret")

(* One strategy's minimal goal-meeting deployment on the cumulative
   workload, through the offline runner's search. *)
let decide ctx workload (label, factory) =
  let class_name =
    (factory ctx).Heuristics.Strategy.heuristic_class.Mcperf.Classes.name
  in
  let d = Sim.Runner.deploy ~factory ~ctx ~workload () in
  let field f = Option.map f d in
  {
    strategy = label;
    class_name;
    parameter = field (fun d -> d.Sim.Runner.parameter);
    cost = field (fun d -> d.Sim.Runner.cost);
    worst_qos = field (fun d -> d.Sim.Runner.worst_qos);
    bound = None;
    regret = None;
  }

let feed t chunk =
  let cfg = t.config in
  let index = List.length t.epochs in
  let sp =
    Obs.Trace.span_begin "online.epoch"
      ~attrs:
        [
          ("epoch", Obs.Trace.Int index);
          ("events", Obs.Trace.Int (Workload.Trace.length chunk));
        ]
  in
  let finish epoch =
    Obs.Metrics.incr (Lazy.force m_epochs);
    Obs.Metrics.incr ~by:(List.length epoch.decisions)
      (Lazy.force m_decisions);
    t.epochs <- epoch :: t.epochs;
    Obs.Trace.span_end sp
      ~attrs:
        [
          ("intervals", Obs.Trace.Int epoch.intervals);
          ("decisions", Obs.Trace.Int (List.length epoch.decisions));
        ];
    epoch
  in
  match
    let incr = Workload.Incremental.extend t.incr chunk in
    let trace =
      match t.trace with
      | None -> chunk
      | Some prev -> Workload.Trace.extend prev chunk
    in
    t.incr <- incr;
    t.trace <- Some trace;
    {
      Heuristics.Strategy.intervals = Workload.Incremental.intervals incr;
      demand = Workload.Incremental.demand incr;
      trace = Some trace;
    }
  with
  | exception e ->
    Obs.Trace.span_end sp ~attrs:[ ("error", Obs.Trace.Bool true) ];
    raise e
  | workload ->
    let { Heuristics.Strategy.intervals; demand; _ } = workload in
    let total_events = Workload.Incremental.events t.incr in
    let working_set =
      Workload.Incremental.working_set t.incr ~window:cfg.epoch_intervals
    in
    if Workload.Demand.total_reads demand <= 0. then
      (* Nothing to place or bound yet: a warm-up epoch. *)
      finish
        {
          index;
          intervals;
          chunk_events = Workload.Trace.length chunk;
          total_events;
          working_set;
          bounds = [];
          decisions = [];
          search_s = 0.;
          solve_s = 0.;
        }
    else begin
      let spec = Mcperf.Spec.make ~system:cfg.system ~demand ~goal:cfg.goal () in
      let ctx =
        Heuristics.Strategy.Context.make ~system:cfg.system ~goal:cfg.goal ()
      in
      let t0 = Unix.gettimeofday () in
      let searches = List.map (decide ctx workload) cfg.strategies in
      let t1 = Unix.gettimeofday () in
      (* One class bound per distinct class among the strategies, each
         the offline bound of the cumulative workload. *)
      let classes =
        List.fold_left
          (fun acc (_, factory) ->
            let cls = (factory ctx).Heuristics.Strategy.heuristic_class in
            if List.exists (fun c -> c.Mcperf.Classes.name = cls.Mcperf.Classes.name) acc
            then acc
            else acc @ [ cls ])
          [] cfg.strategies
      in
      let bounds =
        List.map
          (fun cls ->
            let r = Bounds.Pipeline.compute spec cls in
            Obs.Metrics.incr (Lazy.force m_solves);
            (cls.Mcperf.Classes.name, r))
          classes
      in
      let t2 = Unix.gettimeofday () in
      let decisions =
        List.map
          (fun d ->
            let bound =
              match List.assoc_opt d.class_name bounds with
              | Some (r : Bounds.Pipeline.t) when r.Bounds.Pipeline.feasible ->
                Some r.Bounds.Pipeline.lower_bound
              | Some _ | None -> None
            in
            let regret =
              match (d.cost, bound) with
              | Some c, Some b ->
                let r = c -. b in
                Obs.Metrics.observe (Lazy.force m_regret) r;
                Some r
              | _ -> None
            in
            { d with bound; regret })
          searches
      in
      finish
        {
          index;
          intervals;
          chunk_events = Workload.Trace.length chunk;
          total_events;
          working_set;
          bounds;
          decisions;
          search_s = t1 -. t0;
          solve_s = t2 -. t1;
        }
    end

(* Slice a replay trace into per-epoch continuation chunks: every event
   is bucketed once with the whole-trace arithmetic, so any epoch size
   yields the same cumulative demand — chunking changes when decisions
   happen, never what the workload is. *)
let chunks ~interval_s ~epoch_intervals trace =
  if epoch_intervals <= 0 then
    invalid_arg "Engine.chunks: epoch_intervals must be positive";
  let dur = Workload.Trace.duration_s trace in
  let total = int_of_float (Float.round (dur /. interval_s)) in
  if total <= 0 then invalid_arg "Engine.chunks: trace shorter than interval";
  let n = Workload.Trace.length trace in
  let bucket i =
    min (total - 1)
      (int_of_float (Workload.Trace.time trace i /. interval_s))
  in
  let epoch_count = (total + epoch_intervals - 1) / epoch_intervals in
  let out = ref [] in
  let lo = ref 0 in
  for e = 0 to epoch_count - 1 do
    let last_interval = min total ((e + 1) * epoch_intervals) in
    let hi = ref !lo in
    while !hi < n && bucket !hi < last_interval do
      incr hi
    done;
    let duration_s =
      if e = epoch_count - 1 then dur
      else
        let b = float_of_int last_interval *. interval_s in
        (* Guard against the boundary product rounding below an event
           kept in this chunk (times are strict-below-horizon). *)
        if !hi > !lo then
          Float.max b
            (Float.succ (Workload.Trace.time trace (!hi - 1)))
        else b
    in
    out := Workload.Trace.sub trace ~lo:!lo ~hi:!hi ~duration_s :: !out;
    lo := !hi
  done;
  List.rev !out
