(* Brute-force / differential oracle layer for the exact tree DP.

   Three rings of evidence, from strongest to broadest:

   - exhaustive: on random native instances with <= 12 nodes, per-object
     subset enumeration over the permitted sites must reproduce the DP's
     optimum exactly, for both service disciplines (latencies and
     budgets are integer-valued so path sums are exact floats and the
     comparison is equality, not tolerance);
   - independent solvers: on MC-PERF tree specs the branch-and-bound IP
     optimum must equal the DP, the LP/Lagrangian relaxations must lower
     bound it, and every heuristic that meets the goal must cost at
     least as much (the sandwich LP <= DP <= heuristic);
   - pipeline plumbing: [compute]/sweeps must route eligible cells
     through [Path_tree_dp] with a zero gap, [certify] must accept them,
     and tree sweeps must stay byte-identical across --jobs and under
     tracing. *)

module TD = Bounds.Tree_dp
module TS = Replica_select.Tree_scenario

let float_eq = Alcotest.float 1e-9
let rel_tol = 1e-6

(* --- random native instances -------------------------------------------- *)

(* Integer-valued latencies, budgets, demands and capacities: every
   quantity either discipline sums along a path stays an exact float, so
   oracle and DP cannot disagree by rounding, only by logic. *)
let random_instance rng =
  let nodes = 2 + Util.Prng.int rng 11 in
  let parent = Array.init nodes (fun v -> if v = 0 then -1 else Util.Prng.int rng v) in
  let up_ms =
    Array.init nodes (fun v ->
        if v = 0 then 0. else float_of_int (1 + Util.Prng.int rng 20))
  in
  let objects = 1 + Util.Prng.int rng 3 in
  let demand =
    Array.init objects (fun _ ->
        Array.init nodes (fun v ->
            if v > 0 && Util.Prng.float rng 1. < 0.55 then
              float_of_int (1 + Util.Prng.int rng 9)
            else if v = 0 || Util.Prng.float rng 1. < 0.9 then 0.
            else float_of_int (1 + Util.Prng.int rng 9)))
  in
  let budget_ms =
    Array.init nodes (fun _ -> float_of_int (5 + Util.Prng.int rng 41))
  in
  let permitted =
    Array.init nodes (fun v -> v <> 0 && Util.Prng.float rng 1. < 0.8)
  in
  let replica_cost =
    Array.init objects (fun _ -> float_of_int (1 + Util.Prng.int rng 5))
  in
  let service =
    if Util.Prng.bool rng then TD.Any_replica
    else
      TD.Closest_ancestor
        { capacity = float_of_int (5 + Util.Prng.int rng 56) }
  in
  TD.make ~parent ~up_ms ~permitted ~demand ~budget_ms ~replica_cost ~service ()

(* Pairwise tree distances by walking parent chains — deliberately a
   different algorithm from the DP's shifted accumulations. *)
let distances (inst : TD.instance) =
  let n = inst.TD.nodes in
  let depth_chain v =
    let rec up acc v = if v < 0 then acc else up ((v) :: acc) inst.TD.parent.(v) in
    up [] v
  in
  let dist_to_root = Array.make n 0. in
  for v = 0 to n - 1 do
    if inst.TD.parent.(v) >= 0 then
      dist_to_root.(v) <- dist_to_root.(inst.TD.parent.(v)) +. inst.TD.up_ms.(v)
  done;
  let dist = Array.make_matrix n n 0. in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      (* lowest common ancestor: longest shared prefix of root chains *)
      let cu = depth_chain u and cv = depth_chain v in
      let rec lca last = function
        | x :: xs, y :: ys when x = y -> lca x (xs, ys)
        | _ -> last
      in
      let a = lca 0 (cu, cv) in
      dist.(u).(v) <-
        dist_to_root.(u) +. dist_to_root.(v) -. (2. *. dist_to_root.(a))
    done
  done;
  dist

(* Exhaustive per-object optimum: every subset of the permitted sites.
   Objects do not interact in either discipline, so per-object
   enumeration is exhaustive for the whole instance. *)
let brute_force (inst : TD.instance) =
  let n = inst.TD.nodes in
  let dist = distances inst in
  let perm_sites =
    List.filter (fun v -> inst.TD.permitted.(v)) (List.init n Fun.id)
  in
  let sites = Array.of_list perm_sites in
  let nsites = Array.length sites in
  let subset_feasible k mask =
    let in_set v =
      let rec find i = i < nsites && ((sites.(i) = v && mask land (1 lsl i) <> 0) || find (i + 1)) in
      find 0
    in
    match inst.TD.service with
    | TD.Any_replica ->
      let ok = ref true in
      for v = 0 to n - 1 do
        if inst.TD.demand.(k).(v) > 0. then begin
          let covered = ref false in
          for i = 0 to nsites - 1 do
            if mask land (1 lsl i) <> 0 && dist.(v).(sites.(i)) <= inst.TD.budget_ms.(v)
            then covered := true
          done;
          if not !covered then ok := false
        end
      done;
      !ok
    | TD.Closest_ancestor { capacity } ->
      let load = Array.make n 0. in
      let ok = ref true in
      for v = 0 to n - 1 do
        let d = inst.TD.demand.(k).(v) in
        if d > 0. then begin
          (* first replica on the way to the root, else the root *)
          let rec server u = if u < 0 then inst.TD.root else if in_set u then u else server inst.TD.parent.(u) in
          let s = server v in
          if dist.(v).(s) > inst.TD.budget_ms.(v) then ok := false;
          if s <> inst.TD.root || in_set inst.TD.root then load.(s) <- load.(s) +. d
        end
      done;
      for i = 0 to nsites - 1 do
        if mask land (1 lsl i) <> 0 && load.(sites.(i)) > capacity then ok := false
      done;
      !ok
  in
  let objects = Array.length inst.TD.demand in
  let rec per_object k cost =
    if k = objects then TD.Optimal { TD.cost; placement = [||] }
    else begin
      let best = ref max_int in
      for mask = 0 to (1 lsl nsites) - 1 do
        let count =
          let rec pop m acc = if m = 0 then acc else pop (m lsr 1) (acc + (m land 1)) in
          pop mask 0
        in
        if count < !best && subset_feasible k mask then best := count
      done;
      if !best = max_int then TD.Unsatisfiable { object_id = k }
      else
        per_object (k + 1)
          (cost +. (float_of_int !best *. inst.TD.replica_cost.(k)))
    end
  in
  per_object 0 0.

(* The DP's own placement must be feasible and priced as claimed — an
   independent re-check through the oracle's feasibility test. *)
let check_placement (inst : TD.instance) (sol : TD.solution) =
  let dist = distances inst in
  let claimed = ref 0. in
  Array.iteri
    (fun k sites ->
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "object %d: site %d permitted" k v)
            true inst.TD.permitted.(v))
        sites;
      claimed :=
        !claimed
        +. (float_of_int (List.length sites) *. inst.TD.replica_cost.(k));
      match inst.TD.service with
      | TD.Any_replica ->
        Array.iteri
          (fun v d ->
            if d > 0. then
              Alcotest.(check bool)
                (Printf.sprintf "object %d: demand at %d covered" k v)
                true
                (List.exists
                   (fun u -> dist.(v).(u) <= inst.TD.budget_ms.(v))
                   sites))
          inst.TD.demand.(k)
      | TD.Closest_ancestor { capacity } ->
        let load = Array.make inst.TD.nodes 0. in
        Array.iteri
          (fun v d ->
            if d > 0. then begin
              let rec server u =
                if u < 0 then inst.TD.root
                else if List.mem u sites then u
                else server inst.TD.parent.(u)
              in
              let s = server v in
              Alcotest.(check bool)
                (Printf.sprintf "object %d: demand at %d within budget" k v)
                true
                (dist.(v).(s) <= inst.TD.budget_ms.(v));
              if s <> inst.TD.root then load.(s) <- load.(s) +. d
            end)
          inst.TD.demand.(k);
        List.iter
          (fun u ->
            Alcotest.(check bool)
              (Printf.sprintf "object %d: replica %d within capacity" k u)
              true
              (load.(u) <= capacity))
          sites)
    sol.TD.placement;
  Alcotest.check float_eq "placement priced as claimed" sol.TD.cost !claimed

let test_brute_force_oracle () =
  let rng = Util.Prng.create ~seed:90210 in
  for i = 1 to 100 do
    let inst = random_instance rng in
    let dp = TD.solve inst in
    let oracle = brute_force inst in
    match (dp, oracle) with
    | TD.Optimal dps, TD.Optimal os ->
      Alcotest.check float_eq
        (Printf.sprintf "instance %d: dp equals exhaustive optimum" i)
        os.TD.cost dps.TD.cost;
      check_placement inst dps
    | TD.Unsatisfiable { object_id = a }, TD.Unsatisfiable { object_id = b } ->
      Alcotest.(check int)
        (Printf.sprintf "instance %d: same unsatisfiable object" i)
        b a
    | TD.Optimal _, TD.Unsatisfiable { object_id } ->
      Alcotest.failf "instance %d: dp feasible, oracle says object %d cannot"
        i object_id
    | TD.Unsatisfiable { object_id }, TD.Optimal _ ->
      Alcotest.failf "instance %d: oracle feasible, dp gives up on object %d"
        i object_id
  done

(* Determinism: the same instance must produce the same placement,
   value-for-value, across repeated solves. *)
let test_solve_deterministic () =
  let rng = Util.Prng.create ~seed:4242 in
  for i = 1 to 10 do
    let inst = random_instance rng in
    match (TD.solve inst, TD.solve inst) with
    | TD.Optimal a, TD.Optimal b ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: identical placements" i)
        true
        (a.TD.placement = b.TD.placement)
    | TD.Unsatisfiable a, TD.Unsatisfiable b ->
      Alcotest.(check int) "same object" b.object_id a.object_id
    | _ -> Alcotest.failf "instance %d: outcome changed between solves" i
  done

(* --- MC-PERF differential: DP vs LP vs IP vs heuristics ------------------ *)

let dp_cell_of (scen : TS.t) =
  Bounds.Pipeline.compute ?placeable:scen.TS.placeable scen.TS.spec
    Mcperf.Classes.general

let test_family_eligible_and_exact () =
  List.iteri
    (fun i (scen : TS.t) ->
      let name fmt = Printf.sprintf ("%s (%d): " ^^ fmt) scen.TS.name i in
      (match
         TD.of_spec ?placeable:scen.TS.placeable scen.TS.spec
           Mcperf.Classes.general
       with
      | Error reason -> Alcotest.failf "%signeligible: %s" (name "") reason
      | Ok inst -> (
        match TD.solve inst with
        | TD.Unsatisfiable { object_id } ->
          Alcotest.failf "%sunsatisfiable object %d" (name "") object_id
        | TD.Optimal _ -> ()));
      let cell = dp_cell_of scen in
      Alcotest.(check bool) (name "feasible") true cell.Bounds.Pipeline.feasible;
      Alcotest.(check bool)
        (name "routed through tree-dp")
        true
        (cell.Bounds.Pipeline.solve_path = Bounds.Pipeline.Path_tree_dp);
      Alcotest.(check bool)
        (name "quality exact")
        true
        (cell.Bounds.Pipeline.quality = Bounds.Pipeline.Exact);
      (* gap is [Some 0.] against a positive bound; a zero-cost optimum
         (all demand origin-covered) reports [None], matching [finish] *)
      let expected_gap =
        if cell.Bounds.Pipeline.lower_bound > 0. then Some 0. else None
      in
      Alcotest.(check (option (float 0.))) (name "zero gap") expected_gap
        cell.Bounds.Pipeline.gap;
      (match cell.Bounds.Pipeline.rounded with
      | None -> Alcotest.failf "%sno placement attached" (name "")
      | Some r ->
        Alcotest.(check bool)
          (name "placement meets goal")
          true
          r.Rounding.Round.evaluation.Mcperf.Costing.meets_goal;
        Alcotest.check float_eq
          (name "bound equals placement cost")
          r.Rounding.Round.evaluation.Mcperf.Costing.total
          cell.Bounds.Pipeline.lower_bound);
      (* certify replays the DP from scratch *)
      (match
         Bounds.Pipeline.certify ?placeable:scen.TS.placeable scen.TS.spec
           Mcperf.Classes.general cell
       with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%scertify rejected: %s" (name "") msg))
    (TS.family ~seed:23 ~count:10 ())

(* Sandwich on the same instances: LP relaxation (forced through the
   simplex/PDHG chain) <= DP optimum <= every goal-meeting heuristic;
   the rounded LP placement must itself be feasible and >= DP. *)
let test_sandwich () =
  List.iteri
    (fun i (scen : TS.t) ->
      let name what = Printf.sprintf "%s (%d): %s" scen.TS.name i what in
      let dp = (dp_cell_of scen).Bounds.Pipeline.lower_bound in
      let scale = 1. +. Float.abs dp in
      let lp =
        Bounds.Pipeline.compute ~solver:Bounds.Pipeline.Exact_simplex
          ?placeable:scen.TS.placeable scen.TS.spec Mcperf.Classes.general
      in
      Alcotest.(check bool) (name "lp cell feasible") true lp.Bounds.Pipeline.feasible;
      Alcotest.(check bool)
        (name "lp path is not tree-dp")
        true
        (lp.Bounds.Pipeline.solve_path <> Bounds.Pipeline.Path_tree_dp);
      Alcotest.(check bool)
        (Printf.sprintf "%s (lp %.3f, dp %.3f)" (name "lp bound <= dp")
           lp.Bounds.Pipeline.lower_bound dp)
        true
        (lp.Bounds.Pipeline.lower_bound <= dp +. (rel_tol *. scale));
      (* rounding satellite: the rounded LP point is feasible on trees and
         can never undercut the exact optimum *)
      (match lp.Bounds.Pipeline.rounded with
      | None -> Alcotest.failf "%s" (name "lp cell has no rounded solution")
      | Some r ->
        let ev = r.Rounding.Round.evaluation in
        Alcotest.(check bool)
          (name "rounded lp placement feasible")
          true ev.Mcperf.Costing.meets_goal;
        Alcotest.(check bool)
          (Printf.sprintf "%s (rounded %.3f, dp %.3f)"
             (name "rounded lp >= dp") ev.Mcperf.Costing.total dp)
          true
          (ev.Mcperf.Costing.total >= dp -. (rel_tol *. scale)));
      (* Lagrangian bound (no placeable support: unrestricted only) *)
      if scen.TS.placeable = None then begin
        let lag =
          Bounds.Lagrangian.bound ~iterations:40 scen.TS.spec
            Mcperf.Classes.general
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s (lag %.3f, dp %.3f)" (name "lagrangian <= dp")
             lag.Bounds.Lagrangian.bound dp)
          true
          (lag.Bounds.Lagrangian.bound <= dp +. (rel_tol *. scale))
      end;
      (* heuristics: anything that meets the goal costs at least dp *)
      (match
         Sim.Runner.deploy_offline ?placeable:scen.TS.placeable
           ~factory:Heuristics.Proportional.strategy ~spec:scen.TS.spec ()
       with
      | None -> Alcotest.failf "%s" (name "proportional search found nothing")
      | Some d ->
        let ev =
          match d.Sim.Runner.detail with
          | Heuristics.Strategy.Evaluation ev -> ev
          | Heuristics.Strategy.Cache_outcome _ ->
            Alcotest.failf "%s" (name "proportional deployed a cache")
        in
        Alcotest.(check bool)
          (name "proportional meets goal")
          true ev.Mcperf.Costing.meets_goal;
        Alcotest.(check bool)
          (Printf.sprintf "%s (prop %.3f, dp %.3f)" (name "proportional >= dp")
             ev.Mcperf.Costing.total dp)
          true
          (ev.Mcperf.Costing.total >= dp -. (rel_tol *. scale)));
      List.iter
        (fun strategy ->
          let ev =
            Heuristics.Placement_baselines.evaluate
              ?placeable:scen.TS.placeable ~spec:scen.TS.spec ~strategy
              ~replicas:3 ()
          in
          if ev.Mcperf.Costing.meets_goal then
            Alcotest.(check bool)
              (name
                 (Printf.sprintf "%s baseline >= dp"
                    (Heuristics.Placement_baselines.strategy_name strategy)))
              true
              (ev.Mcperf.Costing.total >= dp -. (rel_tol *. scale)))
        [
          Heuristics.Placement_baselines.Random;
          Heuristics.Placement_baselines.Hotspot;
          Heuristics.Placement_baselines.Greedy;
        ])
    (TS.family ~seed:31 ~count:8 ())

(* Fully independent integer oracle: branch and bound on the MC-PERF IP
   itself must reproduce the DP optimum on small trees. *)
let test_ip_oracle () =
  List.iter
    (fun scen ->
      let dp = (dp_cell_of scen).Bounds.Pipeline.lower_bound in
      let perm =
        Mcperf.Permission.compute ?placeable:scen.TS.placeable scen.TS.spec
          Mcperf.Classes.general
      in
      let model = Mcperf.Model.build perm in
      match
        Ipsolve.Branch_bound.solve ~max_nodes:200_000
          model.Mcperf.Model.problem
      with
      | Ipsolve.Branch_bound.Optimal { objective; _ } ->
        let ip = objective +. model.Mcperf.Model.objective_offset in
        Alcotest.(check bool)
          (Printf.sprintf "%s: ip optimum %.6f equals dp %.6f" scen.TS.name ip
             dp)
          true
          (Float.abs (ip -. dp) <= rel_tol *. (1. +. Float.abs dp))
      | Ipsolve.Branch_bound.Infeasible ->
        Alcotest.failf "%s: ip oracle says infeasible" scen.TS.name
      | Ipsolve.Branch_bound.Node_limit _ ->
        Alcotest.failf "%s: ip oracle hit its node limit" scen.TS.name)
    [
      TS.make ~seed:5 ~objects:3 (TS.Balanced { fanout = 2; depth = 2 });
      TS.make ~seed:6 ~objects:3 (TS.Random { nodes = 6 });
      TS.make ~seed:7 ~objects:3 ~restrict_sites:true (TS.Random { nodes = 7 });
    ]

(* Brute force through the of_spec mapping: the instance the pipeline
   actually solves, cross-checked exhaustively on small specs. *)
let test_of_spec_brute_force () =
  List.iter
    (fun (scen : TS.t) ->
      match
        TD.of_spec ?placeable:scen.TS.placeable scen.TS.spec
          Mcperf.Classes.general
      with
      | Error reason -> Alcotest.failf "%s: ineligible: %s" scen.TS.name reason
      | Ok inst -> (
        match (TD.solve inst, brute_force inst) with
        | TD.Optimal dps, TD.Optimal os ->
          Alcotest.check float_eq
            (Printf.sprintf "%s: dp equals exhaustive optimum" scen.TS.name)
            os.TD.cost dps.TD.cost
        | TD.Unsatisfiable _, TD.Unsatisfiable _ -> ()
        | _ -> Alcotest.failf "%s: dp and oracle disagree" scen.TS.name))
    (List.filter
       (fun (s : TS.t) -> Topology.Graph.node_count s.TS.system.Topology.System.graph <= 12)
       (TS.family ~seed:47 ~count:12 ())
    @ [
        TS.make ~seed:3 (TS.Balanced { fanout = 2; depth = 2 });
        TS.make ~seed:4 (TS.Random { nodes = 11 });
        TS.make ~seed:9 ~restrict_sites:true (TS.Random { nodes = 12 });
      ])

(* of_spec must refuse specs outside the proven-exact scope. *)
let test_of_spec_scope () =
  let scen = TS.make ~seed:8 (TS.Random { nodes = 9 }) in
  let reject what spec cls =
    match TD.of_spec spec cls with
    | Ok _ -> Alcotest.failf "%s: accepted out-of-scope spec" what
    | Error _ -> ()
  in
  reject "constrained class" scen.TS.spec Mcperf.Classes.caching;
  (match scen.TS.spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Qos { tlat_ms; _ } ->
    reject "avg-latency goal"
      {
        scen.TS.spec with
        Mcperf.Spec.goal = Mcperf.Spec.Avg_latency { tavg_ms = tlat_ms };
      }
      Mcperf.Classes.general
  | _ -> assert false);
  (* non-tree topology *)
  let rng = Util.Prng.create ~seed:1 in
  let g =
    Topology.Generate.ring ~rng ~nodes:6
      ~latency:Topology.Generate.default_hop_latency
  in
  let system = Topology.System.make ~origin:0 g in
  let reads =
    [|
      [| { Workload.Demand.node = 3; interval = 0; count = 50. } |];
    |]
  in
  let demand =
    Workload.Demand.create ~nodes:6 ~intervals:1 ~interval_s:3600. ~reads ()
  in
  let spec =
    Mcperf.Spec.make ~system ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 250.; fraction = 0.95 })
      ()
  in
  reject "ring topology" spec Mcperf.Classes.general

(* --- sweeps: byte-identical across jobs and tracing ---------------------- *)

(* [No_sharing]: cells built in one process can physically share
   substructures that per-task unmarshaling in workers does not, and
   plain [Marshal] encodes that sharing as back-references — byte
   equality must witness the values, not the allocation history. *)
let sweep_signature (sweep : Bounds.Pipeline.sweep) =
  Marshal.to_string
    ( sweep.Bounds.Pipeline.per_class,
      List.map
        (fun (label, cells) ->
          ( label,
            List.map
              (fun (x, (r : Bounds.Pipeline.t)) ->
                ( x,
                  r.Bounds.Pipeline.lp_iterations,
                  r.Bounds.Pipeline.quality ))
              cells ))
        sweep.Bounds.Pipeline.per_class )
    [ Marshal.No_sharing ]

let tree_sweep ?obs ~jobs () =
  let scen = TS.make ~seed:77 (TS.Random { nodes = 14 }) in
  Option.iter Obs.Config.install obs;
  let sweep =
    Bounds.Pipeline.sweep_classes
      { Bounds.Pipeline.Sweep_config.default with jobs }
      scen.TS.spec
      ~fractions:TS.default_fractions
      [
        ("general", Mcperf.Classes.general);
        ("caching", Mcperf.Classes.caching);
      ]
  in
  (* the third producer must actually fire: every general cell is a tree
     cell, and no caching cell is *)
  List.iter
    (fun (label, cells) ->
      List.iter
        (fun (fraction, (r : Bounds.Pipeline.t)) ->
          let is_dp =
            r.Bounds.Pipeline.solve_path = Bounds.Pipeline.Path_tree_dp
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %g: tree-dp routing" label fraction)
            (String.equal label "general")
            is_dp)
        cells)
    sweep.Bounds.Pipeline.per_class;
  sweep

let test_sweep_jobs_identical () =
  let seq = tree_sweep ~jobs:1 () in
  let par = tree_sweep ~jobs:4 () in
  Alcotest.(check bool)
    "jobs 1 and jobs 4 byte-identical" true
    (String.equal (sweep_signature seq) (sweep_signature par))

let test_sweep_tracing_identical () =
  let untraced = tree_sweep ~jobs:2 () in
  let traced =
    Fun.protect
      ~finally:(fun () -> Obs.Config.install Obs.Config.disabled)
      (fun () ->
        tree_sweep
          ~obs:{ Obs.Config.default with Obs.Config.sink = Obs.Config.Memory }
          ~jobs:2 ())
  in
  Alcotest.(check bool)
    "traced and untraced byte-identical" true
    (String.equal (sweep_signature untraced) (sweep_signature traced))

(* --- golden fixtures: hand-verified optima on two named trees ------------ *)

let fixture path = Filename.concat "fixtures" path

let load_tree name =
  match Topology.Topo_io.load_result ~path:(fixture name) with
  | Ok (g, _origin) -> g
  | Error e ->
    Alcotest.failf "fixture %s failed to load: %s" name
      (Util.Parse_error.to_string e)

(* fixtures/tree_chain.topo: 0 -120ms- 1 -120ms- 2 -120ms- 3 -120ms- 4.
   Budget 250 everywhere: the origin covers nodes 1 and 2 (120, 240),
   nodes 3 and 4 need a replica; a single replica at 2, 3 or 4 covers
   both (node 2 reaches 4 at 240 <= 250) — hand-verified optimum: one
   replica, cost alpha + beta. *)
let test_golden_chain () =
  let g = load_tree "tree_chain.topo" in
  Alcotest.(check bool) "chain is a tree" true (Topology.Graph.is_tree g);
  let system = Topology.System.make ~origin:0 g in
  let reads =
    [|
      [|
        { Workload.Demand.node = 3; interval = 0; count = 40. };
        { Workload.Demand.node = 4; interval = 0; count = 40. };
      |];
    |]
  in
  let demand =
    Workload.Demand.create ~nodes:5 ~intervals:1 ~interval_s:3600. ~reads ()
  in
  let spec =
    Mcperf.Spec.make ~system ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 250.; fraction = 0.95 })
      ()
  in
  match TD.of_spec spec Mcperf.Classes.general with
  | Error reason -> Alcotest.failf "chain ineligible: %s" reason
  | Ok inst -> (
    match TD.solve inst with
    | TD.Unsatisfiable _ -> Alcotest.fail "chain unsatisfiable"
    | TD.Optimal { cost; placement } ->
      (* alpha + beta = 2 per replica at weight 1 *)
      Alcotest.check float_eq "one replica, cost alpha+beta" 2. cost;
      (match placement.(0) with
      | [ v ] ->
        Alcotest.(check bool)
          (Printf.sprintf "replica at 2, 3 or 4 (got %d)" v)
          true
          (v = 2 || v = 3 || v = 4)
      | sites ->
        Alcotest.failf "expected one site, got %d" (List.length sites)))

(* fixtures/tree_star.topo: hub 0 with spokes 1..4 at 180 ms each.
   Budget 200: each spoke is origin-covered (180 <= 200) EXCEPT the
   far spoke 4 at 220 ms; spoke-to-spoke distance is >= 360, so node 4
   can only be served by itself — hand-verified optimum: one replica
   at node 4, for each of the two objects read there. *)
let test_golden_star () =
  let g = load_tree "tree_star.topo" in
  Alcotest.(check bool) "star is a tree" true (Topology.Graph.is_tree g);
  let system = Topology.System.make ~origin:0 g in
  let reads =
    [|
      [|
        { Workload.Demand.node = 1; interval = 0; count = 30. };
        { Workload.Demand.node = 4; interval = 0; count = 50. };
      |];
      [| { Workload.Demand.node = 4; interval = 0; count = 45. } |];
    |]
  in
  let demand =
    Workload.Demand.create ~nodes:5 ~intervals:1 ~interval_s:3600. ~reads ()
  in
  let spec =
    Mcperf.Spec.make ~system ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 200.; fraction = 0.95 })
      ()
  in
  match TD.of_spec spec Mcperf.Classes.general with
  | Error reason -> Alcotest.failf "star ineligible: %s" reason
  | Ok inst -> (
    match TD.solve inst with
    | TD.Unsatisfiable _ -> Alcotest.fail "star unsatisfiable"
    | TD.Optimal { cost; placement } ->
      Alcotest.check float_eq "two replicas, cost 2*(alpha+beta)" 4. cost;
      Alcotest.(check (list int)) "object 0 served at node 4" [ 4 ] placement.(0);
      Alcotest.(check (list int)) "object 1 served at node 4" [ 4 ] placement.(1))

let () =
  Alcotest.run "tree_dp"
    [
      ( "oracle",
        [
          Alcotest.test_case "brute force, 100 random instances" `Quick
            test_brute_force_oracle;
          Alcotest.test_case "solve deterministic" `Quick
            test_solve_deterministic;
        ] );
      ( "mcperf",
        [
          Alcotest.test_case "family eligible, exact, certified" `Quick
            test_family_eligible_and_exact;
          Alcotest.test_case "sandwich lp <= dp <= heuristics" `Quick
            test_sandwich;
          Alcotest.test_case "branch-and-bound ip equals dp" `Quick
            test_ip_oracle;
          Alcotest.test_case "of_spec instances vs brute force" `Quick
            test_of_spec_brute_force;
          Alcotest.test_case "of_spec scope checks" `Quick test_of_spec_scope;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_sweep_jobs_identical;
          Alcotest.test_case "traced = untraced" `Quick
            test_sweep_tracing_identical;
        ] );
      ( "golden",
        [
          Alcotest.test_case "chain fixture" `Quick test_golden_chain;
          Alcotest.test_case "star fixture" `Quick test_golden_star;
        ] );
    ]
