type ranked = {
  result : Bounds.Pipeline.t;
  deployable : string option;
}

type selection = {
  general_bound : float;
  ranking : ranked list;
  chosen : ranked option;
  near_general : bool;
}

let deployable_of_class = function
  | "storage-constrained" | "storage-constrained-per-node" ->
    Some "greedy-global"
  | "replica-constrained" | "replica-constrained-uniform" ->
    Some "greedy-replica"
  | "caching" -> Some "lru-caching"
  | "cooperative-caching" -> Some "cooperative-caching"
  | "caching-prefetch" -> Some "caching-prefetch"
  | "cooperative-caching-prefetch" -> Some "cooperative-caching-prefetch"
  | "decentralized-local-routing" | "general" | "reactive-general" | _ -> None

let default_candidates =
  [
    Mcperf.Classes.storage_constrained;
    Mcperf.Classes.replica_constrained_uniform;
    Mcperf.Classes.decentralized_local_routing;
    Mcperf.Classes.caching;
    Mcperf.Classes.cooperative_caching;
  ]

(* "Close to the general bound": the chosen class's bound is within this
   factor of it. *)
let slack = 2.0

let select spec =
  let general = Bounds.Pipeline.compute spec Mcperf.Classes.general in
  let ranked =
    List.map
      (fun cls ->
        let r = Bounds.Pipeline.compute spec cls in
        { result = r; deployable = deployable_of_class r.Bounds.Pipeline.class_name })
      default_candidates
  in
  let feasible, infeasible =
    List.partition (fun r -> r.result.Bounds.Pipeline.feasible) ranked
  in
  let sorted =
    List.sort
      (fun a b ->
        compare a.result.Bounds.Pipeline.lower_bound
          b.result.Bounds.Pipeline.lower_bound)
      feasible
  in
  let chosen = match sorted with [] -> None | best :: _ -> Some best in
  let near_general =
    match chosen with
    | None -> false
    | Some c ->
      c.result.Bounds.Pipeline.lower_bound
      <= slack *. Float.max general.Bounds.Pipeline.lower_bound 1e-9
  in
  {
    general_bound = general.Bounds.Pipeline.lower_bound;
    ranking = sorted @ infeasible;
    chosen;
    near_general;
  }

type deployment = {
  open_nodes : int list;
  assignment : int array;
  placeable : bool array;
  phase1_bound : float;
}

(* Fractional open values from a solved phase-one model. *)
let open_values (model : Mcperf.Model.t) x =
  let nodes =
    Mcperf.Spec.node_count model.Mcperf.Model.permission.Mcperf.Permission.spec
  in
  let vals = Array.make nodes 0. in
  Array.iteri
    (fun j kind ->
      match kind with
      | Mcperf.Model.Open_node { node } -> vals.(node) <- x.(j)
      | Mcperf.Model.Store _ | Mcperf.Model.Create _ | Mcperf.Model.Covered _
      | Mcperf.Model.Route _ | Mcperf.Model.Capacity _
      | Mcperf.Model.Replicas _ ->
        ())
    model.Mcperf.Model.kinds;
  vals

let plan_deployment ?(zeta = 10_000.) (spec : Mcperf.Spec.t) =
  let phase1_spec =
    { spec with Mcperf.Spec.costs = { spec.Mcperf.Spec.costs with zeta } }
  in
  (* Per the paper's Section 6.2 all heuristics considered are reactive;
     the per-access refinement (Theorem 3) avoids the coarse-interval
     artifact that would make all interval-0 demand look uncoverable. *)
  let cls =
    Mcperf.Classes.allow_intra_interval_reaction
      Mcperf.Classes.reactive_general
  in
  let feasible_with placeable =
    Mcperf.Permission.feasible
      (Mcperf.Permission.compute ~placeable phase1_spec cls)
  in
  let nodes = Mcperf.Spec.node_count spec in
  let origin = spec.Mcperf.Spec.system.Topology.System.origin in
  let all = Array.make nodes true in
  if not (feasible_with all) then None
  else begin
    let perm = Mcperf.Permission.compute phase1_spec cls in
    let model = Mcperf.Model.build perm in
    let x, bound =
      match Bounds.Pipeline.solve_lp model.Mcperf.Model.problem with
      | Ok lp -> (lp.Bounds.Pipeline.point, lp.Bounds.Pipeline.bound)
      | Error _ -> invalid_arg "plan_deployment: phase-one LP failed"
    in
    let opens = open_values model x in
    (* Greedy rounding of the open variables: largest fractional value
       first, until the goal becomes coverable with the open set. *)
    let order =
      List.init nodes (fun n -> n)
      |> List.filter (fun n -> n <> origin)
      |> List.sort (fun a b -> compare opens.(b) opens.(a))
    in
    let placeable = Array.make nodes false in
    placeable.(origin) <- true;
    let opened = ref [] in
    let rec add_until = function
      | [] -> feasible_with placeable
      | n :: rest ->
        if feasible_with placeable then true
        else begin
          placeable.(n) <- true;
          opened := n :: !opened;
          add_until rest
        end
    in
    let ok = add_until order in
    if not ok then None
    else begin
      let open_nodes = origin :: List.rev !opened in
      let latency = spec.Mcperf.Spec.system.Topology.System.latency in
      let assignment =
        Array.init nodes (fun n ->
            List.fold_left
              (fun best o ->
                if latency.(n).(o) < latency.(n).(best) then o else best)
              origin open_nodes)
      in
      Some
        {
          open_nodes;
          assignment;
          placeable;
          phase1_bound = bound +. model.Mcperf.Model.objective_offset;
        }
    end
  end

let reassign_demand (spec : Mcperf.Spec.t) deployment =
  let demand =
    Workload.Demand.remap_nodes spec.Mcperf.Spec.demand
      ~mapping:deployment.assignment
  in
  { spec with Mcperf.Spec.demand }
