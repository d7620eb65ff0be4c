module CS = Case_study

type decl = {
  name : string;
  sweep_name : string;
  title : string;
  timing_title : string;
  spec : Mcperf.Spec.t;
  placeable : bool array option;
  points : float list;
  classes : (string * Mcperf.Classes.t) list;
  heuristics : (string * (float -> Sim.Runner.deployed option)) list;
}

let at_fraction (spec : Mcperf.Spec.t) fraction =
  match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Qos { tlat_ms; _ } ->
    { spec with Mcperf.Spec.goal = Mcperf.Spec.Qos { tlat_ms; fraction } }
  | Mcperf.Spec.Avg_latency _ ->
    invalid_arg "Figure.at_fraction: requires a QoS goal"

(* --- the figures ---------------------------------------------------------- *)

let fig1_classes =
  [
    ("General lower bound", Mcperf.Classes.general);
    ("Storage constrained", Mcperf.Classes.storage_constrained);
    ("Replica constrained", Mcperf.Classes.replica_constrained_uniform);
    ("Decentral local routing", Mcperf.Classes.decentralized_local_routing);
    ( "Caching",
      Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
    ( "Cooperative caching",
      Mcperf.Classes.allow_intra_interval_reaction
        Mcperf.Classes.cooperative_caching );
  ]

(* Figure [n] of the case study: its names, and its bounds on the
   aggregated demand. *)
let case_figure n (cs : CS.t) ~points what classes =
  let w = CS.workload_name cs.CS.workload in
  let name = Printf.sprintf "fig%d-%s" n (String.lowercase_ascii w) in
  {
    name;
    sweep_name = name;
    title = Printf.sprintf "Figure %d (%s): %s" n w what;
    timing_title = Printf.sprintf "fig%d %s" n w;
    spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true ();
    placeable = None;
    points;
    classes;
    heuristics = [];
  }

let fig1 cs ~points =
  case_figure 1 cs ~points "lower bound per heuristic class vs QoS goal"
    fig1_classes

let fig2 (cs : CS.t) ~points =
  let deploy factory q =
    Sim.Runner.deploy_offline ~trace:cs.CS.trace ~factory
      ~spec:(CS.qos_spec cs ~fraction:q ~for_bounds:false ())
      ()
  in
  let bound_label, cls, chosen_label, chosen =
    match cs.CS.workload with
    | CS.Web ->
      ( "Storage constrained bound",
        Mcperf.Classes.storage_constrained,
        "Greedy global heuristic",
        Heuristics.Greedy_global.strategy )
    | CS.Group ->
      ( "Replica constrained bound",
        Mcperf.Classes.replica_constrained_uniform,
        "Replica constrained heuristic",
        Heuristics.Greedy_replica.strategy )
  in
  let d =
    case_figure 2 cs ~points "deployed heuristic cost vs its class bound"
      [ (bound_label, cls) ]
  in
  {
    d with
    sweep_name = d.name ^ "-bound";
    heuristics =
      [
        (chosen_label, deploy chosen);
        ("LRU caching", deploy Heuristics.Cache_strategy.lru);
      ];
  }

let fig3_classes =
  [
    ( "Reactive bound",
      Mcperf.Classes.allow_intra_interval_reaction
        Mcperf.Classes.reactive_general );
    ("Storage constrained", Mcperf.Classes.storage_constrained);
    ("Replica constrained", Mcperf.Classes.replica_constrained_uniform);
    ( "Caching bound",
      Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
  ]

let fig3 ~zeta (cs : CS.t) ~points =
  let phase1 = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  Option.map
    (fun (plan : Methodology.deployment) ->
      let placeable = plan.Methodology.placeable in
      let trace =
        Workload.Trace.remap_nodes cs.CS.trace
          ~mapping:plan.Methodology.assignment
      in
      let label, factory =
        match cs.CS.workload with
        | CS.Web -> ("Greedy global heuristic", Heuristics.Greedy_global.strategy)
        | CS.Group -> ("LRU caching", Heuristics.Cache_strategy.lru)
      in
      let deploy q =
        Sim.Runner.deploy_offline ~placeable ~trace ~factory
          ~spec:
            (Methodology.reassign_demand
               (CS.qos_spec cs ~fraction:q ~for_bounds:false ())
               plan)
          ()
      in
      let d =
        case_figure 3 cs ~points
          (Printf.sprintf "bounds with only the %d deployed nodes"
             (List.length plan.Methodology.open_nodes))
          fig3_classes
      in
      ( plan,
        {
          d with
          sweep_name = d.name ^ "-bound";
          spec = Methodology.reassign_demand phase1 plan;
          placeable = Some placeable;
          heuristics = [ (label, deploy) ];
        } ))
    (Methodology.plan_deployment ~zeta phase1)

(* On trees the general bound is the exact optimum (the DP), so the
   figure reads as ground truth vs the caching class's bound vs the
   proportional heuristic's deployed cost — the paper's bound-vs-deployed
   comparison, but with the bound known to be tight. *)
let figtree ~seed =
  let spec = (Tree_scenario.make ~seed (Tree_scenario.Random { nodes = 24 }))
      .Tree_scenario.spec
  in
  let name = Printf.sprintf "figtree-n24-s%d" seed in
  {
    name;
    sweep_name = name;
    title =
      Printf.sprintf
        "Tree figure (random 24-node tree, seed %d): exact optimum vs \
         caching bound vs proportional heuristic"
        seed;
    timing_title = "figtree";
    spec;
    placeable = None;
    points = [ 0.9; 0.95; 0.99; 0.999 ];
    classes =
      [
        ("Exact tree optimum (general)", Mcperf.Classes.general);
        ( "Caching",
          Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
      ];
    heuristics =
      [
        ( "Proportional (deployed)",
          fun q ->
            Sim.Runner.deploy_offline ~factory:Heuristics.Proportional.strategy
              ~spec:(at_fraction spec q) () );
      ];
  }

(* --- results, and the run that builds them --------------------------------- *)

type 'a cell = { fraction : float; value : 'a; wall_s : float }

type sweep = {
  elapsed_s : float;
  pool : Util.Parallel.pool_stats;
  resumed : int;
}

type bound = {
  label : string;
  cls : Mcperf.Classes.t;
  cells : Bounds.Pipeline.t cell list;
}

type deployed = {
  heuristic : string;
  outcomes : Sim.Runner.deployed option cell list;
  deploy_sweep : sweep;
}

type t = {
  decl : decl;
  bounds : bound list;
  bound_sweep : sweep;
  deployed : deployed list;
}

type event =
  | Bounds_done of t
  | Deploying of string
  | Deployed_done of deployed

let run ?journal_dir ?(deadline_s = infinity) ?(cell_budget_s = infinity)
    ?timeout_s ?(on_event = ignore) ~jobs (d : decl) =
  let journal =
    Option.map
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Filename.concat dir (d.sweep_name ^ ".journal"))
      journal_dir
  in
  let sweep =
    Bounds.Pipeline.sweep_classes
      {
        Bounds.Pipeline.Sweep_config.default with
        jobs;
        placeable = d.placeable;
        deadline_s;
        cell_budget_s;
        journal;
        timeout_s;
      }
      d.spec ~fractions:d.points d.classes
  in
  let bounds =
    List.map2
      (fun (label, cls) ((_, results), walls) ->
        {
          label;
          cls;
          cells =
            List.map2
              (fun (fraction, value) wall_s -> { fraction; value; wall_s })
              results walls;
        })
      d.classes
      (List.combine sweep.Bounds.Pipeline.per_class sweep.Bounds.Pipeline.wall_s)
  in
  let fig =
    {
      decl = d;
      bounds;
      bound_sweep =
        {
          elapsed_s = sweep.Bounds.Pipeline.elapsed_s;
          pool = sweep.Bounds.Pipeline.pool;
          resumed = sweep.Bounds.Pipeline.resumed;
        };
      deployed = [];
    }
  in
  on_event (Bounds_done fig);
  (* The bisection inside each point is anytime (its upper bracket stays
     feasible), so a point that runs out of its budget returns a valid but
     possibly non-minimal parameter. *)
  let budget_of =
    if Float.is_finite cell_budget_s then Some (fun _ -> cell_budget_s)
    else None
  in
  let deploy_column (heuristic, deploy) =
    on_event (Deploying heuristic);
    let t0 = Unix.gettimeofday () in
    let results = Util.Parallel.map ~jobs ?budget_of ~f:deploy d.points in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    let column =
      {
        heuristic;
        outcomes =
          List.map2
            (fun fraction (r : _ Util.Parallel.result) ->
              {
                fraction;
                value = r.Util.Parallel.value;
                wall_s = r.Util.Parallel.wall_s;
              })
            d.points results;
        deploy_sweep =
          { elapsed_s; pool = Util.Parallel.last_pool_stats (); resumed = 0 };
      }
    in
    on_event (Deployed_done column);
    column
  in
  { fig with deployed = List.map deploy_column d.heuristics }
