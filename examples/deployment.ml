(* The paper's Section 6.2 scenario: greenfield deployment.

   No file servers exist yet. Phase one solves MC-PERF with a node-opening
   cost in the objective, which selects a small set of sites to deploy.
   Phase two reassigns every site's users to the nearest deployed node and
   recomputes the class bounds on the reduced system — the right heuristic
   can change (the paper's GROUP case: caching becomes competitive once
   only a few well-placed nodes exist).

   Run with:  dune exec examples/deployment.exe *)

module CS = Replica_select.Case_study
module M = Replica_select.Methodology

let () =
  let cs = CS.make ~scale:0.05 CS.Group in
  let goal = 0.99 in
  let spec = CS.qos_spec cs ~fraction:goal ~for_bounds:true () in

  (* Phase 1: where should file servers go? *)
  match M.plan_deployment ~zeta:10_000. spec with
  | None -> Format.printf "even opening every site cannot meet the goal@."
  | Some plan ->
    Replica_select.Report.print_deployment plan;

    (* Phase 2: bounds on the reduced system. *)
    let placeable = plan.M.placeable in
    let reduced = M.reassign_demand spec plan in
    Format.printf "@.class bounds with only the deployed nodes:@.";
    List.iter
      (fun (cls : Mcperf.Classes.t) ->
        let r = Bounds.Pipeline.compute ~placeable reduced cls in
        Format.printf "  %a@." Bounds.Pipeline.pp r)
      [
        (* The per-access refinement matches the planner's own feasibility
           notion (Theorem 3); without it the hourly discretization makes
           interval-0 demand look uncoverable for any reactive scheme. *)
        Mcperf.Classes.allow_intra_interval_reaction
          Mcperf.Classes.reactive_general;
        Mcperf.Classes.storage_constrained;
        Mcperf.Classes.replica_constrained_uniform;
        Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching;
      ];

    (* If caching's bound is close to the others, the designer can pick it
       for its simplicity — run it to see the real cost. *)
    let sim_spec =
      M.reassign_demand (CS.qos_spec cs ~fraction:goal ~for_bounds:false ()) plan
    in
    let trace =
      Workload.Trace.remap_nodes cs.CS.trace ~mapping:plan.M.assignment
    in
    (match
       Sim.Runner.deploy_offline ~placeable ~trace
         ~factory:Heuristics.Cache_strategy.lru ~spec:sim_spec ()
     with
    | Some d ->
      Format.printf
        "@.LRU caching on the deployed nodes: capacity %d, cost %.0f, worst \
         QoS %.5f@."
        d.Sim.Runner.parameter d.Sim.Runner.cost d.Sim.Runner.worst_qos
    | None ->
      Format.printf "@.LRU caching cannot meet the goal on this deployment@.")
