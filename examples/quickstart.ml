(* Quickstart: the library in ~60 lines.

   Build a tiny wide-area system, describe a workload and a QoS goal, and
   ask the methodology which replica placement heuristic to use.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A system: six sites; node 0 will be the best-connected node and
     therefore the origin (it stores every object permanently). *)
  let graph =
    Topology.Graph.of_edges 6
      [
        (0, 1, 120.);
        (0, 2, 140.);
        (0, 3, 180.);
        (3, 4, 110.);
        (4, 5, 130.);
        (1, 2, 100.);
      ]
  in
  let system = Topology.System.make graph in
  Format.printf "%a@." Topology.Graph.pp graph;
  Format.printf "origin (headquarters): node %d@.@."
    system.Topology.System.origin;

  (* 2. A workload: 40 objects, 5000 requests over a day, Zipf popularity,
     bucketed into 12 two-hour evaluation intervals. *)
  let rng = Util.Prng.create ~seed:42 in
  let spec_template =
    {
      Workload.Synthesize.web_spec with
      nodes = 6;
      objects = 40;
      total_requests = 5_000;
      max_object_requests = 600;
      min_object_requests = 1;
    }
  in
  let trace = Workload.Synthesize.web ~rng spec_template in
  let demand = Workload.Demand.of_trace ~intervals:12 trace in
  Format.printf "%a@.@." Workload.Demand.pp_summary demand;

  (* 3. A performance goal: 99% of each user's reads within 150 ms. *)
  let spec =
    Mcperf.Spec.make ~system ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.99 })
      ()
  in

  (* 4. Ask the methodology: rank the heuristic classes by their inherent
     cost (lower bounds), pick the cheapest feasible one. *)
  let selection = Replica_select.Methodology.select spec in
  Replica_select.Report.print_selection ~title:"Which heuristic?" selection;

  (* 5. Sanity-check the choice by deploying heuristics in simulation. *)
  let deploy factory = Sim.Runner.deploy_offline ~trace ~factory ~spec () in
  (match deploy Heuristics.Greedy_replica.strategy with
  | Some d ->
    Format.printf "greedy-replica:  %d replicas/object, cost %.0f@."
      d.Sim.Runner.parameter d.Sim.Runner.cost
  | None -> Format.printf "greedy-replica cannot meet the goal@.");
  (match deploy Heuristics.Greedy_global.strategy with
  | Some d ->
    Format.printf "greedy-global:   capacity %d/node, cost %.0f@."
      d.Sim.Runner.parameter d.Sim.Runner.cost
  | None -> Format.printf "greedy-global cannot meet the goal@.");
  match deploy Heuristics.Cache_strategy.lru with
  | Some d ->
    Format.printf "lru-caching:     capacity %d/node, cost %.0f@."
      d.Sim.Runner.parameter d.Sim.Runner.cost
  | None ->
    Format.printf
      "lru-caching cannot meet the goal at any capacity (cold misses)@."
