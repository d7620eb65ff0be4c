(* The paper's Section 6.1 scenario end-to-end, at reduced scale.

   A corporation with 20 sites runs a remote-office file service on
   existing infrastructure. The designer has example workloads (WEB-like
   and GROUP-like) and a QoS goal, and must pick a placement heuristic.

   The methodology: compute the lower bound of each implementable
   heuristic class, pick the cheapest feasible class, deploy its concrete
   heuristic, and verify by simulation that the deployed cost lands above
   its class bound but below the other classes' bounds.

   Run with:  dune exec examples/remote_office.exe  (takes a few minutes) *)

module CS = Replica_select.Case_study

let study workload =
  let name = CS.workload_name workload in
  Format.printf "@.==================== %s ====================@." name;
  (* Smaller than the default case study so the example runs quickly. *)
  let cs = CS.make ~scale:0.05 workload in
  let goal = 0.999 in
  let bound_spec = CS.qos_spec cs ~fraction:goal ~for_bounds:true () in
  let sim_spec = CS.qos_spec cs ~fraction:goal ~for_bounds:false () in

  (* Step 1: rank the classes by inherent cost. *)
  let selection = Replica_select.Methodology.select bound_spec in
  Replica_select.Report.print_selection
    ~title:(Printf.sprintf "%s: class ranking at %.1f%% QoS" name (100. *. goal))
    selection;

  (* Step 2: deploy the recommended heuristic and the "obvious" default
     (LRU caching), and compare their real costs. *)
  let describe label = function
    | Some (d : Sim.Runner.deployed) ->
      Format.printf "  %-28s parameter %4d   cost %10.0f   worst QoS %.5f@."
        label d.Sim.Runner.parameter d.Sim.Runner.cost d.Sim.Runner.worst_qos;
      Some d.Sim.Runner.cost
    | None ->
      Format.printf "  %-28s cannot meet the goal@." label;
      None
  in
  Format.printf "@.deployed heuristics at %.1f%% QoS:@." (100. *. goal);
  let deploy factory =
    Sim.Runner.deploy_offline ~trace:cs.CS.trace ~factory ~spec:sim_spec ()
  in
  let chosen_cost =
    match selection.Replica_select.Methodology.chosen with
    | Some { deployable = Some "greedy-global"; _ } ->
      describe "greedy-global (chosen)" (deploy Heuristics.Greedy_global.strategy)
    | Some { deployable = Some "greedy-replica"; _ } ->
      describe "greedy-replica (chosen)"
        (deploy Heuristics.Greedy_replica.strategy)
    | Some { deployable = Some other; _ } ->
      Format.printf "  chosen class maps to %s@." other;
      None
    | Some { deployable = None; _ } | None ->
      Format.printf "  no deployable recommendation@.";
      None
  in
  let lru_cost =
    describe "LRU caching (default)" (deploy Heuristics.Cache_strategy.lru)
  in
  match (chosen_cost, lru_cost) with
  | Some c, Some l when c > 0. ->
    Format.printf
      "@.==> choosing by the methodology instead of defaulting to caching \
       saves %.1fx@."
      (l /. c)
  | Some _, None ->
    Format.printf
      "@.==> the default (caching) cannot even meet this goal; the \
       methodology's choice can@."
  | _ -> ()

let () =
  study CS.Web;
  study CS.Group
