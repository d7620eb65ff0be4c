(* Tests for the rounding algorithm and the lower-bound pipeline:
   feasibility of rounded solutions, validity of bounds against the exact
   IP optimum, and the methodology-level class comparisons. *)

let cell n i c : Workload.Demand.cell = { node = n; interval = i; count = c }

let line_system () =
  let g =
    Topology.Graph.of_edges 4 [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ]
  in
  Topology.System.make ~origin:0 g

let tail_demand () =
  Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
    ~reads:[| [| cell 3 0 10.; cell 3 1 10.; cell 3 2 10.; cell 3 3 10. |] |]
    ()

let qos_spec ?(fraction = 1.0) () =
  Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction })
    ()

(* --- rounding on the fixture ------------------------------------------- *)

let round_class spec cls =
  let perm = Mcperf.Permission.compute spec cls in
  let model = Mcperf.Model.build perm in
  match Lp.Simplex.solve model.Mcperf.Model.problem with
  | Lp.Simplex.Optimal { x; objective } -> (perm, model, x, objective)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
    Alcotest.fail "fixture LP should solve"

let test_rounding_integral_lp () =
  (* The general LP optimum on the fixture is already integral; rounding
     must return it unchanged: cost 5, no rounding steps. *)
  let perm, model, x, _ = round_class (qos_spec ()) Mcperf.Classes.general in
  match Rounding.Round.round model ~x with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check (float 1e-6)) "cost" 5.
      r.Rounding.Round.evaluation.Mcperf.Costing.total;
    Alcotest.(check bool) "meets goal" true
      r.Rounding.Round.evaluation.Mcperf.Costing.meets_goal;
    Alcotest.(check bool) "respects permissions" true
      (Mcperf.Costing.respects_permissions perm r.Rounding.Round.placement)

let test_rounding_fractional_lp () =
  (* At 75% QoS the LP is fractional (0.75 everywhere); rounding must
     produce a feasible integral placement costing >= the bound. *)
  let perm, model, x, lp = round_class (qos_spec ~fraction:0.75 ()) Mcperf.Classes.general in
  match Rounding.Round.round model ~x with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let cost = r.Rounding.Round.evaluation.Mcperf.Costing.total in
    Alcotest.(check bool) "meets goal" true
      r.Rounding.Round.evaluation.Mcperf.Costing.meets_goal;
    Alcotest.(check bool) "cost at least the LP bound" true (cost >= lp -. 1e-6);
    Alcotest.(check bool) "rounded something" true
      (r.Rounding.Round.rounded_up + r.Rounding.Round.rounded_down > 0);
    Alcotest.(check bool) "permissions" true
      (Mcperf.Costing.respects_permissions perm r.Rounding.Round.placement);
    (* Integral optimum at 75% is 4 (3 intervals + 1 create). *)
    Alcotest.(check (float 1e-6)) "optimal integral rounding" 4. cost

let test_rounding_sc_padding_charged () =
  let _, model, x, lp =
    round_class (qos_spec ()) Mcperf.Classes.storage_constrained
  in
  match Rounding.Round.round model ~x with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let e = r.Rounding.Round.evaluation in
    Alcotest.(check bool) "padding charged" true
      (e.Mcperf.Costing.sc_padding > 0.);
    Alcotest.(check bool) "cost >= bound" true
      (e.Mcperf.Costing.total >= lp -. 1e-6)

let test_rounding_rejects_avg_goal () =
  let spec =
    Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
      ~goal:(Mcperf.Spec.Avg_latency { tavg_ms = 150. })
      ()
  in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let model = Mcperf.Model.build perm in
  let x = Array.make (Lp.Problem.nvars model.Mcperf.Model.problem) 0. in
  match Rounding.Round.round model ~x with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "avg-latency rounding should be rejected"

(* --- pipeline ------------------------------------------------------------ *)

let test_pipeline_general_exact () =
  let r = Bounds.Pipeline.compute (qos_spec ()) Mcperf.Classes.general in
  Alcotest.(check bool) "feasible" true r.Bounds.Pipeline.feasible;
  Alcotest.(check bool) "exact" true r.Bounds.Pipeline.exact;
  Alcotest.(check (float 1e-6)) "bound" 5. r.Bounds.Pipeline.lower_bound;
  (match r.Bounds.Pipeline.gap with
  | Some g -> Alcotest.(check (float 1e-6)) "zero gap" 0. g
  | None -> Alcotest.fail "expected a gap");
  match r.Bounds.Pipeline.rounded with
  | Some rr ->
    Alcotest.(check (float 1e-6)) "rounded cost" 5.
      rr.Rounding.Round.evaluation.Mcperf.Costing.total
  | None -> Alcotest.fail "expected a rounded solution"

let test_pipeline_detects_infeasible_class () =
  let r = Bounds.Pipeline.compute (qos_spec ()) Mcperf.Classes.caching in
  Alcotest.(check bool) "caching infeasible at 100%" false
    r.Bounds.Pipeline.feasible;
  Alcotest.(check (float 1e-9)) "ceiling 0.75" 0.75
    r.Bounds.Pipeline.max_feasible_qos;
  Alcotest.(check bool) "bound is +inf" true
    (r.Bounds.Pipeline.lower_bound = infinity)

let test_pipeline_caching_at_75 () =
  let r =
    Bounds.Pipeline.compute (qos_spec ~fraction:0.75 ()) Mcperf.Classes.caching
  in
  Alcotest.(check bool) "feasible" true r.Bounds.Pipeline.feasible;
  (* Caching (uniform SC): stores on node 3 for intervals 1-3, capacity 1
     on all three sites. LP splits nothing here (only node 3 can store). *)
  Alcotest.(check bool) "bound positive" true (r.Bounds.Pipeline.lower_bound > 0.)

let test_pipeline_first_order_agrees () =
  let spec = qos_spec () in
  let exact =
    Bounds.Pipeline.compute ~solver:Bounds.Pipeline.Exact_simplex spec
      Mcperf.Classes.general
  in
  let fo =
    Bounds.Pipeline.compute
      ~solver:
        (Bounds.Pipeline.First_order
           { Lp.Pdhg.default_options with max_iters = 60_000; rel_tol = 1e-7 })
      spec Mcperf.Classes.general
  in
  Alcotest.(check bool) "first-order bound is valid" true
    (fo.Bounds.Pipeline.lower_bound
    <= exact.Bounds.Pipeline.lower_bound +. 1e-4);
  Alcotest.(check bool) "first-order bound is tight here" true
    (Float.abs
       (fo.Bounds.Pipeline.lower_bound -. exact.Bounds.Pipeline.lower_bound)
    < 0.01)

(* --- average-latency rounding ------------------------------------------- *)

let avg_spec ~tavg () =
  Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
    ~goal:(Mcperf.Spec.Avg_latency { tavg_ms = tavg })
    ()

let test_avg_pipeline_end_to_end () =
  (* Node 3's only alternative to a local replica is the 300 ms origin; an
     average goal of 150 ms needs replicas at least half the time. *)
  let r = Bounds.Pipeline.compute (avg_spec ~tavg:150. ()) Mcperf.Classes.general in
  Alcotest.(check bool) "feasible" true r.Bounds.Pipeline.feasible;
  Alcotest.(check bool) "bound positive" true (r.Bounds.Pipeline.lower_bound > 0.);
  match r.Bounds.Pipeline.rounded with
  | None -> Alcotest.fail "expected an avg rounding"
  | Some rr ->
    let e = rr.Rounding.Round.evaluation in
    Alcotest.(check bool) "meets avg goal" true e.Mcperf.Costing.meets_goal;
    Alcotest.(check bool) "cost at least the bound" true
      (e.Mcperf.Costing.total >= r.Bounds.Pipeline.lower_bound -. 1e-6)

let test_avg_loose_goal_is_free () =
  (* With tavg = 300 the origin alone meets the goal: bound 0, empty
     rounding. *)
  let r = Bounds.Pipeline.compute (avg_spec ~tavg:300. ()) Mcperf.Classes.general in
  Alcotest.(check (float 1e-6)) "free" 0. r.Bounds.Pipeline.lower_bound;
  match r.Bounds.Pipeline.rounded with
  | Some rr ->
    Alcotest.(check (float 1e-6)) "rounded is free too" 0.
      rr.Rounding.Round.evaluation.Mcperf.Costing.total
  | None -> Alcotest.fail "expected a rounding"

let test_avg_rounding_respects_permissions () =
  let spec = avg_spec ~tavg:150. () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.cooperative_caching in
  if Mcperf.Permission.feasible perm then begin
    let model = Mcperf.Model.build perm in
    match Lp.Simplex.solve model.Mcperf.Model.problem with
    | Lp.Simplex.Optimal { x; _ } -> (
      match Rounding.Round_avg.round model ~x with
      | Ok rr ->
        Alcotest.(check bool) "permissions" true
          (Mcperf.Costing.respects_permissions perm rr.Rounding.Round.placement)
      | Error _ -> () (* the class may be unable to meet the goal *))
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> ()
  end

(* --- randomized validation against the exact IP --------------------------- *)

let random_scenario rng =
  let nodes = 4 + Util.Prng.int rng 3 in
  let g =
    Topology.Generate.as_like ~rng ~nodes
      ~latency:Topology.Generate.default_hop_latency
  in
  let sys = Topology.System.make g in
  let intervals = 3 + Util.Prng.int rng 3 in
  let objects = 1 + Util.Prng.int rng 2 in
  let reads =
    Array.init objects (fun _ ->
        let ncells = 1 + Util.Prng.int rng 5 in
        let tbl = Hashtbl.create 8 in
        for _ = 1 to ncells do
          let n = Util.Prng.int rng nodes and i = Util.Prng.int rng intervals in
          let c = float_of_int (1 + Util.Prng.int rng 20) in
          let prev = Option.value (Hashtbl.find_opt tbl (i, n)) ~default:0. in
          Hashtbl.replace tbl (i, n) (prev +. c)
        done;
        let cells =
          Hashtbl.fold (fun (i, n) c acc -> cell n i c :: acc) tbl []
        in
        let arr = Array.of_list cells in
        Array.sort
          (fun (a : Workload.Demand.cell) b ->
            match compare a.interval b.interval with
            | 0 -> compare a.node b.node
            | c -> c)
          arr;
        arr)
  in
  let demand =
    Workload.Demand.create ~nodes ~intervals ~interval_s:3600. ~reads ()
  in
  let fraction = 0.5 +. (0.5 *. Util.Prng.float rng 1.) in
  Mcperf.Spec.make ~system:sys ~demand
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction })
    ()

let classes_under_test =
  [
    Mcperf.Classes.general;
    Mcperf.Classes.storage_constrained;
    Mcperf.Classes.replica_constrained;
    Mcperf.Classes.cooperative_caching;
    Mcperf.Classes.caching;
  ]

let prop_bound_sandwich =
  QCheck2.Test.make ~count:25
    ~name:"LP bound <= IP optimum <= rounded cost on random scenarios"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let spec = random_scenario rng in
      List.for_all
        (fun cls ->
          let perm = Mcperf.Permission.compute spec cls in
          if not (Mcperf.Permission.feasible perm) then true
          else begin
            let model = Mcperf.Model.build perm in
            match Lp.Simplex.solve model.Mcperf.Model.problem with
            | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> false
            | Lp.Simplex.Optimal { x; objective = lp } -> (
              match Rounding.Round.round model ~x with
              | Error _ -> false
              | Ok r ->
                let e = r.Rounding.Round.evaluation in
                let ip_ok =
                  if Lp.Problem.nvars model.Mcperf.Model.problem > 80 then true
                  else
                    match
                      Ipsolve.Branch_bound.solve ~max_nodes:20_000
                        model.Mcperf.Model.problem
                    with
                    | Ipsolve.Branch_bound.Optimal { objective = ip; _ } ->
                      lp <= ip +. 1e-6
                    | Ipsolve.Branch_bound.Node_limit _ -> true
                    | Ipsolve.Branch_bound.Infeasible -> false
                in
                e.Mcperf.Costing.meets_goal
                && Mcperf.Costing.respects_permissions perm
                     r.Rounding.Round.placement
                && e.Mcperf.Costing.total >= lp -. 1e-6
                && ip_ok)
          end)
        classes_under_test)

let prop_general_is_weakest_bound =
  QCheck2.Test.make ~count:25
    ~name:"general bound <= every feasible class bound"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 31) in
      let spec = random_scenario rng in
      let bound cls =
        let r =
          Bounds.Pipeline.compute ~solver:Bounds.Pipeline.Exact_simplex spec
            cls
        in
        if r.Bounds.Pipeline.feasible then Some r.Bounds.Pipeline.lower_bound
        else None
      in
      match bound Mcperf.Classes.general with
      | None -> false (* the general class can always meet a feasible goal? *)
      | Some g ->
        List.for_all
          (fun cls ->
            match bound cls with
            | None -> true
            | Some b -> b >= g -. 1e-6)
          (List.tl classes_under_test))

let prop_pdhg_bound_valid_on_mcperf =
  QCheck2.Test.make ~count:15
    ~name:"first-order certified bound <= exact LP optimum on MC-PERF"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 77) in
      let spec = random_scenario rng in
      let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
      if not (Mcperf.Permission.feasible perm) then true
      else begin
        let model = Mcperf.Model.build perm in
        match Lp.Simplex.solve model.Mcperf.Model.problem with
        | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> false
        | Lp.Simplex.Optimal { objective = lp; _ } ->
          let out =
            Lp.Pdhg.solve
              ~options:
                { Lp.Pdhg.default_options with max_iters = 20_000; rel_tol = 1e-6 }
              model.Mcperf.Model.problem
          in
          out.Lp.Pdhg.best_bound <= lp +. 1e-5
      end)


(* --- Lagrangian decomposition bound -------------------------------------- *)

let test_lagrangian_on_fixture () =
  (* LP optimum on the fixture is 5; the Lagrangian dual should approach
     it from below and never exceed it. *)
  let spec = qos_spec () in
  let out = Bounds.Lagrangian.bound ~iterations:200 spec Mcperf.Classes.general in
  Alcotest.(check bool) "valid" true (out.Bounds.Lagrangian.bound <= 5. +. 1e-6);
  Alcotest.(check bool) "nontrivial" true (out.Bounds.Lagrangian.bound > 2.);
  Alcotest.(check bool) "solved exactly" true
    (out.Bounds.Lagrangian.subproblems_exact > 0)

let test_lagrangian_infeasible_class () =
  let out = Bounds.Lagrangian.bound (qos_spec ()) Mcperf.Classes.caching in
  Alcotest.(check bool) "infinite" true (out.Bounds.Lagrangian.bound = infinity)

let test_lagrangian_rejects_avg () =
  let spec =
    Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
      ~goal:(Mcperf.Spec.Avg_latency { tavg_ms = 150. })
      ()
  in
  Alcotest.check_raises "avg rejected"
    (Invalid_argument "Lagrangian.bound: requires a QoS goal") (fun () ->
      ignore (Bounds.Lagrangian.bound spec Mcperf.Classes.general))

let prop_lagrangian_below_lp =
  QCheck2.Test.make ~count:15
    ~name:"lagrangian dual <= exact LP optimum on random scenarios"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 5) in
      let spec = random_scenario rng in
      List.for_all
        (fun cls ->
          let perm = Mcperf.Permission.compute spec cls in
          if not (Mcperf.Permission.feasible perm) then true
          else begin
            let model = Mcperf.Model.build perm in
            match Lp.Simplex.solve model.Mcperf.Model.problem with
            | Lp.Simplex.Optimal { objective = lp; _ } ->
              let out = Bounds.Lagrangian.bound ~iterations:30 spec cls in
              out.Bounds.Lagrangian.bound <= lp +. 1e-5
            | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> false
          end)
        [ Mcperf.Classes.general; Mcperf.Classes.replica_constrained;
          Mcperf.Classes.cooperative_caching ])

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_bound_sandwich;
        prop_general_is_weakest_bound;
        prop_pdhg_bound_valid_on_mcperf;
        prop_lagrangian_below_lp;
      ]
  in
  Alcotest.run "bounds"
    [
      ( "rounding",
        [
          Alcotest.test_case "integral LP passthrough" `Quick
            test_rounding_integral_lp;
          Alcotest.test_case "fractional LP" `Quick test_rounding_fractional_lp;
          Alcotest.test_case "sc padding" `Quick
            test_rounding_sc_padding_charged;
          Alcotest.test_case "rejects avg goal" `Quick
            test_rounding_rejects_avg_goal;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "general exact" `Quick test_pipeline_general_exact;
          Alcotest.test_case "infeasible class" `Quick
            test_pipeline_detects_infeasible_class;
          Alcotest.test_case "caching at 75%" `Quick test_pipeline_caching_at_75;
          Alcotest.test_case "first-order agrees" `Quick
            test_pipeline_first_order_agrees;
        ] );
      ( "lagrangian",
        [
          Alcotest.test_case "fixture" `Quick test_lagrangian_on_fixture;
          Alcotest.test_case "infeasible class" `Quick
            test_lagrangian_infeasible_class;
          Alcotest.test_case "rejects avg" `Quick test_lagrangian_rejects_avg;
        ] );
      ( "avg-latency",
        [
          Alcotest.test_case "pipeline end-to-end" `Quick
            test_avg_pipeline_end_to_end;
          Alcotest.test_case "loose goal free" `Quick test_avg_loose_goal_is_free;
          Alcotest.test_case "permissions" `Quick
            test_avg_rounding_respects_permissions;
        ] );
      ("properties", props);
    ]
