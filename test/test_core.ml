(* Tests for the public replica_select layer: case-study assembly, the
   Section 6.1 selection methodology, the Section 6.2 deployment planner,
   and report rendering. *)

module CS = Replica_select.Case_study
module M = Replica_select.Methodology
module Report = Replica_select.Report
module Figure = Replica_select.Figure

(* Small and fast: 8 nodes, 2% of the paper's request volume. *)
let small_web () = CS.make ~nodes:8 ~scale:0.02 ~intervals:8 CS.Web
let small_group () = CS.make ~nodes:8 ~scale:0.01 ~intervals:8 CS.Group

let test_case_study_construction () =
  let cs = small_web () in
  Alcotest.(check int) "nodes" 8 (Topology.System.node_count cs.CS.system);
  Alcotest.(check int) "intervals" 8 cs.CS.demand.Workload.Demand.intervals;
  Alcotest.(check bool) "objects scaled up for the tail" true
    (Workload.Trace.object_count cs.CS.trace >= 40);
  (* The bound demand preserves the weighted read volume. *)
  Alcotest.(check bool) "bound demand preserves volume" true
    (Float.abs
       (Workload.Demand.total_reads cs.CS.bound_demand
       -. Workload.Demand.total_reads cs.CS.demand)
    < 1e-6 *. Workload.Demand.total_reads cs.CS.demand)

let test_case_study_determinism () =
  let a = small_web () and b = small_web () in
  Alcotest.(check int) "same trace length" (Workload.Trace.length a.CS.trace)
    (Workload.Trace.length b.CS.trace);
  Alcotest.(check (float 1e-9)) "same demand"
    (Workload.Demand.total_reads a.CS.demand)
    (Workload.Demand.total_reads b.CS.demand);
  let c = CS.make ~nodes:8 ~scale:0.02 ~intervals:8 ~seed:99 CS.Web in
  Alcotest.(check bool) "different seed differs" true
    (Workload.Demand.total_reads c.CS.demand
     <> Workload.Demand.total_reads a.CS.demand
    || Workload.Trace.node a.CS.trace 0 <> Workload.Trace.node c.CS.trace 0)

let test_group_aggregation_small () =
  let cs = small_group () in
  Alcotest.(check bool) "group clusters to few classes" true
    (cs.CS.bound_demand.Workload.Demand.objects <= 24)

let test_selection_ranks_classes () =
  let cs = small_web () in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sel = M.select spec in
  Alcotest.(check bool) "general bound positive" true (sel.M.general_bound >= 0.);
  (match sel.M.chosen with
  | Some best ->
    Alcotest.(check bool) "chosen is feasible" true
      best.M.result.Bounds.Pipeline.feasible;
    Alcotest.(check bool) "chosen >= general" true
      (best.M.result.Bounds.Pipeline.lower_bound >= sel.M.general_bound -. 1e-6);
    (* The ranking's feasible prefix is sorted by bound. *)
    let feasible_bounds =
      List.filter_map
        (fun (r : M.ranked) ->
          if r.M.result.Bounds.Pipeline.feasible then
            Some r.M.result.Bounds.Pipeline.lower_bound
          else None)
        sel.M.ranking
    in
    Alcotest.(check bool) "sorted" true
      (List.sort compare feasible_bounds = feasible_bounds)
  | None -> Alcotest.fail "expected a feasible class at 95%")

let test_deployable_mapping () =
  Alcotest.(check (option string)) "sc" (Some "greedy-global")
    (M.deployable_of_class "storage-constrained");
  Alcotest.(check (option string)) "rc" (Some "greedy-replica")
    (M.deployable_of_class "replica-constrained-uniform");
  Alcotest.(check (option string)) "caching" (Some "lru-caching")
    (M.deployable_of_class "caching");
  Alcotest.(check (option string)) "general" None
    (M.deployable_of_class "general")

let test_plan_deployment () =
  let cs = small_group () in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  match M.plan_deployment ~zeta:100. spec with
  | None -> Alcotest.fail "deployment should be possible"
  | Some plan ->
    let origin = cs.CS.system.Topology.System.origin in
    Alcotest.(check bool) "origin open" true
      (List.mem origin plan.M.open_nodes);
    Alcotest.(check bool) "some nodes open" true
      (List.length plan.M.open_nodes >= 1);
    Alcotest.(check bool) "not everything opened" true
      (List.length plan.M.open_nodes
      < Topology.System.node_count cs.CS.system);
    (* Every site is assigned to an open node. *)
    Array.iter
      (fun a ->
        Alcotest.(check bool) "assigned to open" true
          (List.mem a plan.M.open_nodes))
      plan.M.assignment;
    (* Placeable mask matches the open list (origin excluded by
       Permission, but present in the plan's list). *)
    List.iter
      (fun o ->
        if o <> origin then
          Alcotest.(check bool) "placeable" true plan.M.placeable.(o))
      plan.M.open_nodes;
    (* The reduced system must still meet the goal for the general class. *)
    let reduced = M.reassign_demand spec plan in
    let r =
      Bounds.Pipeline.compute ~placeable:plan.M.placeable reduced
        (Mcperf.Classes.allow_intra_interval_reaction
           Mcperf.Classes.reactive_general)
    in
    Alcotest.(check bool) "reduced system feasible" true
      r.Bounds.Pipeline.feasible;
    (* Total demand is preserved by the reassignment. *)
    Alcotest.(check bool) "demand preserved" true
      (Float.abs
         (Workload.Demand.total_reads reduced.Mcperf.Spec.demand
         -. Workload.Demand.total_reads spec.Mcperf.Spec.demand)
      < 1e-6)

(* The scenario LP and the phase-one LP solve on the cell chain's LP leg:
   each call emits exactly one [pipeline.solve_relaxation] span, ended
   with the path that produced its bound, and bumps that path's counter
   by one. *)
let test_lp_leg_spans () =
  let on_leg label path run =
    Obs.Config.install { Obs.Config.default with sink = Obs.Config.Memory };
    run ();
    let evs = Obs.Trace.events () in
    (match
       List.filter
         (fun (e : Obs.Trace.event) ->
           e.Obs.Trace.name = "pipeline.solve_relaxation")
         evs
     with
    | [ b ] ->
      (* A span's end carries no name: it matches its begin by id. *)
      let ends =
        List.filter
          (fun (e : Obs.Trace.event) ->
            e.Obs.Trace.kind = Obs.Trace.Span_end
            && e.Obs.Trace.scope = b.Obs.Trace.scope
            && e.Obs.Trace.id = b.Obs.Trace.id)
          evs
      in
      Alcotest.(check (list string))
        (label ^ ": ended on the " ^ path ^ " path")
        [ path ]
        (List.filter_map
           (fun (e : Obs.Trace.event) ->
             match List.assoc_opt "path" e.Obs.Trace.attrs with
             | Some (Obs.Trace.Str p) -> Some p
             | Some _ | None -> None)
           ends)
    | leg ->
      Alcotest.failf "%s: %d solve_relaxation spans, want 1" label
        (List.length leg));
    Alcotest.(check int)
      (label ^ ": path counter")
      1
      (Obs.Metrics.counter_value
         (Obs.Metrics.counter ("pipeline.path." ^ path)))
  in
  let cs = CS.make ~nodes:6 ~intervals:6 ~scale:0.005 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.9 ~for_bounds:true () in
  let scenarios =
    Avail.Scenario.sample_all Avail.Scenario.default cs.CS.system
      ~groups:(Avail.Groups.derive cs.CS.system)
  in
  let scenario_lp ?solver () =
    ignore
      (Bounds.Avail_bound.expected_cost_bound ?solver spec
         Mcperf.Classes.general ~scenarios)
  in
  let group = CS.qos_spec (small_group ()) ~fraction:0.95 ~for_bounds:true () in
  Fun.protect
    ~finally:(fun () -> Obs.Config.install Obs.Config.disabled)
    (fun () ->
      on_leg "scenario LP, exact simplex" "simplex"
        (scenario_lp ~solver:Bounds.Pipeline.Exact_simplex);
      on_leg "scenario LP, auto" "pdhg" (scenario_lp ?solver:None);
      on_leg "phase one" "pdhg" (fun () ->
          ignore (M.plan_deployment ~zeta:100. group)))

let test_deployment_restricts_placement () =
  let cs = small_group () in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  match M.plan_deployment ~zeta:100. spec with
  | None -> Alcotest.fail "deployment should be possible"
  | Some plan ->
    let reduced = M.reassign_demand spec plan in
    let perm =
      Mcperf.Permission.compute ~placeable:plan.M.placeable reduced
        Mcperf.Classes.general
    in
    let nodes = Topology.System.node_count cs.CS.system in
    for m = 0 to nodes - 1 do
      if not plan.M.placeable.(m) then
        for k = 0 to reduced.Mcperf.Spec.demand.Workload.Demand.objects - 1 do
          Alcotest.(check int)
            (Printf.sprintf "closed node %d has no store support" m)
            0
            perm.Mcperf.Permission.store_mask.(m).(k)
        done
    done

(* Deployment reduces the phase-2 bound versus opening nothing extra:
   cross-check that an open set chosen by the planner is at least
   goal-feasible while a trivial (origin-only) one may not be. *)
let test_deployment_beats_origin_only () =
  let cs = small_group () in
  let spec = CS.qos_spec cs ~fraction:0.999 ~for_bounds:true () in
  let origin_only =
    Array.init (Topology.System.node_count cs.CS.system) (fun _ -> false)
  in
  let perm =
    Mcperf.Permission.compute ~placeable:origin_only spec
      (Mcperf.Classes.allow_intra_interval_reaction
         Mcperf.Classes.reactive_general)
  in
  if Mcperf.Permission.feasible perm then ()
    (* If the origin alone suffices topologically, the planner may open
       nothing; that is fine. *)
  else
    match M.plan_deployment ~zeta:100. spec with
    | None -> Alcotest.fail "planner should find a deployment"
    | Some plan ->
      Alcotest.(check bool) "opened at least one node" true
        (List.length plan.M.open_nodes >= 2)

(* --- report rendering --------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

(* A figure by hand: bound columns "a" and "b" over two goals, with the
   costs given and [None] an infeasible cell. *)
let hand_figure a b =
  let spec =
    (Replica_select.Tree_scenario.make
       (Replica_select.Tree_scenario.Balanced { fanout = 2; depth = 1 }))
      .Replica_select.Tree_scenario.spec
  in
  let base = Bounds.Pipeline.compute spec Mcperf.Classes.general in
  let cell fraction cost =
    {
      Figure.fraction;
      value =
        (match cost with
        | Some c ->
          { base with Bounds.Pipeline.feasible = true; lower_bound = c }
        | None -> { base with Bounds.Pipeline.feasible = false });
      wall_s = 0.;
    }
  in
  let points = [ 0.95; 0.99 ] in
  let column label costs =
    {
      Figure.label;
      cls = Mcperf.Classes.general;
      cells = List.map2 cell points costs;
    }
  in
  {
    Figure.decl =
      {
        Figure.name = "test";
        sweep_name = "test";
        title = "test";
        timing_title = "test";
        spec;
        placeable = None;
        points;
        classes = [ ("a", Mcperf.Classes.general); ("b", Mcperf.Classes.general) ];
        heuristics = [];
      };
    bounds = [ column "a" a; column "b" b ];
    bound_sweep =
      { Figure.elapsed_s = 0.; pool = Util.Parallel.last_pool_stats (); resumed = 0 };
    deployed = [];
  }

let test_report_figure_rendering () =
  let fig = hand_figure [ Some 10.; Some 20. ] [ Some 15.; None ] in
  let buf_name = Filename.temp_file "report" ".txt" in
  let oc = open_out buf_name in
  Report.print_figure ~oc fig;
  close_out oc;
  let content =
    let ic = open_in buf_name in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove buf_name;
    s
  in
  Alcotest.(check bool) "has title" true (contains content "=== test ===");
  Alcotest.(check bool) "has infeasible dash" true (contains content "-");
  Alcotest.(check bool) "has values" true (contains content "15")

let test_report_csv () =
  let csv =
    Report.csv_of_figure (hand_figure [ Some 10.; Some 20. ] [ None; Some 5. ])
  in
  Alcotest.(check string) "csv"
    "qos,a,b\n0.95,10,\n0.99,20,5\n" csv

let () =
  Alcotest.run "replica_select"
    [
      ( "case-study",
        [
          Alcotest.test_case "construction" `Quick test_case_study_construction;
          Alcotest.test_case "determinism" `Quick test_case_study_determinism;
          Alcotest.test_case "group aggregation" `Quick
            test_group_aggregation_small;
        ] );
      ( "selection",
        [
          Alcotest.test_case "ranking" `Slow test_selection_ranks_classes;
          Alcotest.test_case "deployable mapping" `Quick test_deployable_mapping;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "plan" `Slow test_plan_deployment;
          Alcotest.test_case "placement restricted" `Slow
            test_deployment_restricts_placement;
          Alcotest.test_case "beats origin-only" `Slow
            test_deployment_beats_origin_only;
          Alcotest.test_case "phase one and scenario LP on the LP leg" `Slow
            test_lp_leg_spans;
        ] );
      ( "report",
        [
          Alcotest.test_case "figure rendering" `Quick
            test_report_figure_rendering;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
    ]
