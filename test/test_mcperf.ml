(* Tests for the MC-PERF core: permission analysis (constraints (20),
   (20a), (21)), model assembly (constraints (2)-(19)), cost accounting,
   and the NP-hardness reduction of Theorem 1. *)

let cell n i c : Workload.Demand.cell = { node = n; interval = i; count = c }

(* Line topology 0 -- 1 -- 2 -- 3 with 100 ms hops, origin at node 0,
   Tlat = 150 ms: each node reaches only itself and its direct
   neighbours. *)
let line_system () =
  let g =
    Topology.Graph.of_edges 4 [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ]
  in
  Topology.System.make ~origin:0 g

(* Single object, read by node 3 in all four intervals. *)
let tail_demand () =
  Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
    ~reads:[| [| cell 3 0 10.; cell 3 1 10.; cell 3 2 10.; cell 3 3 10. |] |]
    ()

let qos_spec ?(fraction = 1.0) ?costs () =
  Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ()) ?costs
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction })
    ()

(* --- spec validation --------------------------------------------------- *)

let test_spec_validation () =
  Alcotest.check_raises "node mismatch"
    (Invalid_argument "Spec.make: system and demand disagree on node count")
    (fun () ->
      let d =
        Workload.Demand.create ~nodes:2 ~intervals:1 ~interval_s:1.
          ~reads:[| [| cell 0 0 1. |] |] ()
      in
      ignore
        (Mcperf.Spec.make ~system:(line_system ()) ~demand:d
           ~goal:(Mcperf.Spec.Qos { tlat_ms = 1.; fraction = 1. })
           ()));
  let make ?costs goal =
    ignore
      (Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
         ?costs ~goal ())
  in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Spec.make: QoS fraction must be in [0, 1]") (fun () ->
      make (Mcperf.Spec.Qos { tlat_ms = 1.; fraction = 1.5 }));
  (* NaN passes a [x < 0.] test, so each check must be written to fail
     on it. *)
  Alcotest.check_raises "NaN fraction"
    (Invalid_argument "Spec.make: QoS fraction must be in [0, 1]") (fun () ->
      make (Mcperf.Spec.Qos { tlat_ms = 1.; fraction = Float.nan }));
  Alcotest.check_raises "NaN latency threshold"
    (Invalid_argument "Spec.make: latency threshold must be >= 0") (fun () ->
      make (Mcperf.Spec.Qos { tlat_ms = Float.nan; fraction = 0.9 }));
  Alcotest.check_raises "NaN cost"
    (Invalid_argument "Spec.make: costs must be non-negative") (fun () ->
      make
        ~costs:{ Mcperf.Spec.default_costs with gamma = Float.nan }
        (Mcperf.Spec.Qos { tlat_ms = 1.; fraction = 0.9 }))

(* --- permission masks --------------------------------------------------- *)

let test_permission_general () =
  let spec = qos_spec () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  (* Node 1 cannot help node 3 (200 ms), so it has no store support. *)
  Alcotest.(check bool) "node 1 pruned" false
    (Mcperf.Permission.store_possible perm ~node:1 ~interval:0 ~object_id:0);
  (* Nodes 2 and 3 can cover node 3 from interval 0 (proactive, global). *)
  Alcotest.(check bool) "node 2 interval 0" true
    (Mcperf.Permission.store_possible perm ~node:2 ~interval:0 ~object_id:0);
  Alcotest.(check bool) "node 3 interval 0" true
    (Mcperf.Permission.store_possible perm ~node:3 ~interval:0 ~object_id:0);
  (* The origin never receives placement variables. *)
  Alcotest.(check bool) "origin pruned" false
    (Mcperf.Permission.store_possible perm ~node:0 ~interval:0 ~object_id:0)

let test_permission_caching_reactive () =
  let spec = qos_spec () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.caching in
  (* Reactive, window 1, local knowledge: node 3 may create only at
     intervals following its own accesses (1, 2, 3 — not 0). *)
  Alcotest.(check bool) "no create at 0" false
    (Mcperf.Permission.create_allowed perm ~node:3 ~interval:0 ~object_id:0);
  Alcotest.(check bool) "create at 1" true
    (Mcperf.Permission.create_allowed perm ~node:3 ~interval:1 ~object_id:0);
  Alcotest.(check bool) "store holds from 1" true
    (Mcperf.Permission.store_possible perm ~node:3 ~interval:3 ~object_id:0);
  Alcotest.(check bool) "no store at 0" false
    (Mcperf.Permission.store_possible perm ~node:3 ~interval:0 ~object_id:0);
  (* Local routing: node 2's replica is unreachable for node 3, so node 2
     has no store support at all. *)
  Alcotest.(check bool) "node 2 pruned under local routing" false
    (Mcperf.Permission.store_possible perm ~node:2 ~interval:1 ~object_id:0)

let test_permission_cooperative_window () =
  let spec = qos_spec () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.cooperative_caching in
  (* Global knowledge, reactive window 1: node 2 may create at i+1 after
     anyone's access at i. *)
  Alcotest.(check bool) "node 2 create at 1" true
    (Mcperf.Permission.create_allowed perm ~node:2 ~interval:1 ~object_id:0);
  Alcotest.(check bool) "node 2 no create at 0" false
    (Mcperf.Permission.create_allowed perm ~node:2 ~interval:0 ~object_id:0)

let test_permission_prefetch_proactive () =
  let spec = qos_spec () in
  let perm =
    Mcperf.Permission.compute spec Mcperf.Classes.cooperative_caching_prefetch
  in
  (* Proactive window 1: the current interval's accesses are usable. *)
  Alcotest.(check bool) "create at 0" true
    (Mcperf.Permission.create_allowed perm ~node:2 ~interval:0 ~object_id:0)

let test_max_feasible_qos () =
  let spec = qos_spec () in
  (* General class: everything coverable. *)
  let perm_gen = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let q = Mcperf.Permission.max_feasible_qos perm_gen in
  Alcotest.(check (float 1e-9)) "general covers all" 1. q.(3);
  (* Caching: interval 0's read is a cold miss 300 ms from the origin. *)
  let perm_cache = Mcperf.Permission.compute spec Mcperf.Classes.caching in
  let q = Mcperf.Permission.max_feasible_qos perm_cache in
  Alcotest.(check (float 1e-9)) "caching cold-miss ceiling" 0.75 q.(3);
  Alcotest.(check bool) "caching infeasible at 100%" false
    (Mcperf.Permission.feasible perm_cache)

(* --- permission: sparse pass against the dense reference ----------------- *)

(* A random tiny instance: an AS-like topology of 2-7 nodes with a random
   origin, 1-6 objects over 1-5 intervals with Bernoulli cells (counts 1,
   2 or 3.5, so the per-access threshold of 2 falls both ways) and a goal
   whose threshold ranges from covering only the node itself to the whole
   graph. *)
let random_permission_spec ~seed ~avg =
  let rng = Util.Prng.create ~seed in
  let nodes = 2 + Util.Prng.int rng 6 in
  let intervals = 1 + Util.Prng.int rng 5 in
  let objects = 1 + Util.Prng.int rng 6 in
  let graph =
    Topology.Generate.as_like ~rng ~nodes
      ~latency:Topology.Generate.default_hop_latency
  in
  let system = Topology.System.make ~origin:(Util.Prng.int rng nodes) graph in
  let reads =
    Array.init objects (fun _ ->
        let cells = ref [] in
        for i = 0 to intervals - 1 do
          for n = 0 to nodes - 1 do
            if Util.Prng.float rng 1. < 0.3 then
              cells :=
                cell n i [| 1.; 2.; 3.5 |].(Util.Prng.int rng 3) :: !cells
          done
        done;
        Array.of_list (List.rev !cells))
  in
  if Array.for_all (fun cells -> cells = [||]) reads then
    reads.(0) <- [| cell (nodes - 1) 0 1. |];
  let demand =
    Workload.Demand.create ~nodes ~intervals ~interval_s:3600. ~reads ()
  in
  let goal =
    if avg then Mcperf.Spec.Avg_latency { tavg_ms = Util.Prng.float rng 400. }
    else
      Mcperf.Spec.Qos { tlat_ms = Util.Prng.float rng 600.; fraction = 0.9 }
  in
  (rng, Mcperf.Spec.make ~system ~demand ~goal ())

(* Every catalogue class and its per-access variant, window histories
   beyond the catalogue's [Window 1], and a random custom knowledge
   matrix. *)
let permission_classes rng nodes =
  let open Mcperf.Classes in
  let custom =
    Topology.System.Know_custom
      (Array.init nodes (fun _ ->
           Array.init nodes (fun _ -> Util.Prng.bool rng)))
  in
  let base =
    catalogue
    @ [
        { caching with name = "caching-w2"; history = Window 2 };
        {
          cooperative_caching_prefetch with
          name = "coop-w3";
          history = Window 3;
        };
        { caching_prefetch with name = "prefetch-w3"; history = Window 3 };
        { general with name = "custom"; knowledge = custom };
        {
          cooperative_caching with
          name = "custom-w2";
          knowledge = custom;
          history = Window 2;
        };
      ]
  in
  base @ List.map allow_intra_interval_reaction base

(* The result of a call, or the message of the [Invalid_argument] it
   raised. *)
let attempt f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_permission ?placeable spec cls =
  match
    ( attempt (fun () -> Mcperf.Permission.compute ?placeable spec cls),
      attempt (fun () -> Permission_dense.compute ?placeable spec cls) )
  with
  | Ok got, Ok want ->
    got.Mcperf.Permission.placeable = want.Permission_dense.placeable
    && got.Mcperf.Permission.reach = want.Permission_dense.reach
    && got.Mcperf.Permission.know = want.Permission_dense.know
    && got.Mcperf.Permission.origin_covered
       = want.Permission_dense.origin_covered
    && got.Mcperf.Permission.create_mask = want.Permission_dense.create_mask
    && got.Mcperf.Permission.store_mask = want.Permission_dense.store_mask
  | Error got, Error want -> got = want
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_permission_matches_dense =
  QCheck2.Test.make ~count:150
    ~name:"permission: sparse compute = dense reference, every field"
    QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
    (fun (seed, avg) ->
      let rng, spec = random_permission_spec ~seed ~avg in
      let nodes = Mcperf.Spec.node_count spec in
      let placeable = Array.init nodes (fun _ -> Util.Prng.bool rng) in
      let window0 =
        { Mcperf.Classes.caching with history = Mcperf.Classes.Window 0 }
      in
      List.for_all
        (fun cls ->
          same_permission spec cls && same_permission ~placeable spec cls)
        (permission_classes rng nodes)
      (* [Window 0] is rejected exactly when a pair could be placed... *)
      && same_permission spec window0
      && same_permission ~placeable spec window0
      && same_permission ~placeable:(Array.make nodes false) spec window0
      (* ...and a placeable mask of the wrong length always is. *)
      && same_permission ~placeable:(Array.make (nodes + 1) true) spec
           Mcperf.Classes.general)

(* --- exact bounds on the hand-computed fixture -------------------------- *)

let simplex_bound spec cls =
  let perm = Mcperf.Permission.compute spec cls in
  let model = Mcperf.Model.build perm in
  match Lp.Simplex.solve model.Mcperf.Model.problem with
  | Lp.Simplex.Optimal { x; objective } ->
    (model, x, objective +. model.Mcperf.Model.objective_offset)
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected LP infeasibility"
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded LP"

let test_general_bound_exact () =
  (* Cover node 3's four reads with one replica held for four intervals:
     4 alpha + 1 beta = 5. *)
  let _, _, bound = simplex_bound (qos_spec ()) Mcperf.Classes.general in
  Alcotest.(check (float 1e-6)) "general bound" 5. bound

let test_general_bound_matches_ip () =
  let model, _, bound =
    simplex_bound (qos_spec ()) Mcperf.Classes.general
  in
  match Ipsolve.Branch_bound.solve model.Mcperf.Model.problem with
  | Ipsolve.Branch_bound.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "LP = IP on this instance" bound objective
  | Ipsolve.Branch_bound.Infeasible -> Alcotest.fail "IP infeasible"
  | Ipsolve.Branch_bound.Node_limit _ -> Alcotest.fail "IP node limit"

let test_sc_bound_exact () =
  (* Uniform storage constraint: capacity 1 on each of the 3 non-origin
     sites for 4 intervals = 12, plus one creation = 13. *)
  let _, _, bound =
    simplex_bound (qos_spec ()) Mcperf.Classes.storage_constrained
  in
  (* The LP splits capacity fractionally across nodes 2 and 3 (C = 0.5
     each covering half): 12 * 0.5 storage + 1 creation = 7 — strictly
     below any integral SC solution, as a lower bound should be. *)
  Alcotest.(check (float 1e-6)) "SC bound" 7. bound

let test_sc_per_node_bound_exact () =
  (* Per-node capacities: only the storing node pays: 4 + 1 = 5. *)
  let _, _, bound =
    simplex_bound (qos_spec ()) Mcperf.Classes.storage_constrained_per_node
  in
  Alcotest.(check (float 1e-6)) "SC per-node bound" 5. bound

let test_rc_bound_exact () =
  (* Per-object replica constraint: R_0 = 1 replica held all 4 intervals =
     4 storage + 1 creation = 5. *)
  let _, _, bound =
    simplex_bound (qos_spec ()) Mcperf.Classes.replica_constrained
  in
  Alcotest.(check (float 1e-6)) "RC bound" 5. bound

let test_class_bounds_dominate_general () =
  let spec = qos_spec () in
  let _, _, general = simplex_bound spec Mcperf.Classes.general in
  List.iter
    (fun cls ->
      let perm = Mcperf.Permission.compute spec cls in
      if Mcperf.Permission.feasible perm then begin
        let _, _, bound = simplex_bound spec cls in
        if bound < general -. 1e-6 then
          Alcotest.failf "class %s bound %.3f below general %.3f"
            cls.Mcperf.Classes.name bound general
      end)
    Mcperf.Classes.catalogue

let test_lower_qos_is_cheaper () =
  (* At 75% QoS the LP stores a constant fractional 0.75 replica:
     4 * 0.75 storage + 0.75 creation = 3.75 (below the best integral
     solution, 4). *)
  let _, _, bound =
    simplex_bound (qos_spec ~fraction:0.75 ()) Mcperf.Classes.general
  in
  Alcotest.(check (float 1e-6)) "75% bound" 3.75 bound

let test_origin_covered_demand_is_free () =
  (* Node 1 is a neighbour of the origin: its reads cost nothing. *)
  let demand =
    Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
      ~reads:[| [| cell 1 0 10.; cell 1 2 5. |] |]
      ()
  in
  let spec =
    Mcperf.Spec.make ~system:(line_system ()) ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 1. })
      ()
  in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let model = Mcperf.Model.build perm in
  Alcotest.(check int) "no variables needed" 0
    (Mcperf.Model.var_count model);
  Alcotest.(check (float 1e-9)) "always covered" 15.
    model.Mcperf.Model.always_covered.(1)

(* --- cost extensions ----------------------------------------------------- *)

let test_write_cost_extension () =
  (* delta > 0: writes to the object charge each replica. One replica held
     4 intervals; node 1 writes 3 times in interval 2 -> 3 * delta extra. *)
  let demand =
    Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
      ~writes:[| [| cell 1 2 3. |] |]
      ~reads:[| [| cell 3 0 10.; cell 3 1 10.; cell 3 2 10.; cell 3 3 10. |] |]
      ()
  in
  let costs = { Mcperf.Spec.default_costs with delta = 2. } in
  let spec =
    Mcperf.Spec.make ~system:(line_system ()) ~demand ~costs
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 1. })
      ()
  in
  let _, _, bound = simplex_bound spec Mcperf.Classes.general in
  (* 5 (storage+create) + 2 * 3 (updates to the one replica) = 11. *)
  Alcotest.(check (float 1e-6)) "write extension" 11. bound

let test_penalty_extension () =
  (* gamma > 0 at a QoS goal below 100%: the uncovered read pays
     gamma * (300 - 150) from the origin fallback. *)
  let costs = { Mcperf.Spec.default_costs with gamma = 0.01 } in
  let spec = qos_spec ~fraction:0.75 ~costs () in
  let _, _, bound = simplex_bound spec Mcperf.Classes.general in
  (* Serving 3 reads: 3 + 1 = 4; the 10 uncovered interval-0 reads pay
     0.01 * 150 * 10 = 15. Alternative: cover everything for 5 + 0. The
     LP picks the cheaper: 5. *)
  Alcotest.(check (float 1e-6)) "penalty favours full coverage" 5. bound

let test_open_cost_extension () =
  (* zeta > 0 charges each node that stores anything. *)
  let costs = { Mcperf.Spec.default_costs with zeta = 100. } in
  let spec = qos_spec ~costs () in
  let _, _, bound = simplex_bound spec Mcperf.Classes.general in
  Alcotest.(check (float 1e-6)) "open cost" 105. bound

(* --- average-latency goal ------------------------------------------------ *)

let test_avg_latency_goal () =
  (* Node 3's reads: origin is 300 ms away. Avg goal 150 ms forces a
     replica at 2 or 3 for at least half the demand-time. *)
  let demand = tail_demand () in
  let spec =
    Mcperf.Spec.make ~system:(line_system ()) ~demand
      ~goal:(Mcperf.Spec.Avg_latency { tavg_ms = 150. })
      ()
  in
  let _, _, bound = simplex_bound spec Mcperf.Classes.general in
  (* Local replica at node 3 (0 ms) for half the reads: avg = 150. Two
     intervals of storage + 1 create = 3; fractional solutions may spread
     thinner. Bound must be positive and at most 5 (full coverage). *)
  Alcotest.(check bool) "bound in range" true (bound > 0. && bound <= 5.);
  let loose =
    Mcperf.Spec.make ~system:(line_system ()) ~demand
      ~goal:(Mcperf.Spec.Avg_latency { tavg_ms = 300. })
      ()
  in
  let _, _, loose_bound = simplex_bound loose Mcperf.Classes.general in
  Alcotest.(check (float 1e-6)) "loose avg goal is free" 0. loose_bound

(* --- costing -------------------------------------------------------------- *)

let test_costing_storage_creation () =
  let spec = qos_spec () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let placement = Mcperf.Costing.empty_placement spec in
  (* Store object 0 on node 3 during intervals 1-3 (mask 0b1110). *)
  placement.(3).(0) <- 0b1110;
  let e = Mcperf.Costing.evaluate perm placement in
  Alcotest.(check (float 1e-9)) "storage" 3. e.Mcperf.Costing.storage;
  Alcotest.(check (float 1e-9)) "creation" 1. e.Mcperf.Costing.creation;
  Alcotest.(check (float 1e-9)) "qos 3/4" 0.75 e.Mcperf.Costing.qos.(3);
  Alcotest.(check bool) "misses 100% goal" false e.Mcperf.Costing.meets_goal

let test_costing_multiple_creations () =
  let spec = qos_spec () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let placement = Mcperf.Costing.empty_placement spec in
  (* Store in intervals 0 and 2-3: two separate creations. *)
  placement.(3).(0) <- 0b1101;
  let e = Mcperf.Costing.evaluate perm placement in
  Alcotest.(check (float 1e-9)) "storage" 3. e.Mcperf.Costing.storage;
  Alcotest.(check (float 1e-9)) "creations" 2. e.Mcperf.Costing.creation

let test_costing_sc_padding () =
  let spec = qos_spec () in
  let perm =
    Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained
  in
  let placement = Mcperf.Costing.empty_placement spec in
  placement.(3).(0) <- 0b1111;
  let e = Mcperf.Costing.evaluate perm placement in
  (* cmax = 1. Node 3 is full every interval (pad 0); nodes 1 and 2 pad 4
     intervals of storage + 1 creation each: 2 * 5 = 10. *)
  Alcotest.(check (float 1e-9)) "sc padding" 10. e.Mcperf.Costing.sc_padding;
  Alcotest.(check (float 1e-9)) "total" 15. e.Mcperf.Costing.total

let test_costing_respects_permissions () =
  let spec = qos_spec () in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.caching in
  let ok = Mcperf.Costing.empty_placement spec in
  ok.(3).(0) <- 0b1110;
  Alcotest.(check bool) "legal caching placement" true
    (Mcperf.Costing.respects_permissions perm ok);
  let bad = Mcperf.Costing.empty_placement spec in
  bad.(3).(0) <- 0b1111;
  Alcotest.(check bool) "storing at interval 0 is illegal" false
    (Mcperf.Costing.respects_permissions perm bad);
  let bad2 = Mcperf.Costing.empty_placement spec in
  bad2.(2).(0) <- 0b0010;
  Alcotest.(check bool) "node 2 cannot store under local routing" false
    (Mcperf.Costing.respects_permissions perm bad2)



let test_spec_rejects_too_many_intervals () =
  let reads = [| [| cell 0 0 1. |] |] in
  let d =
    Workload.Demand.create ~nodes:4 ~intervals:63 ~interval_s:1. ~reads ()
  in
  Alcotest.check_raises "63 intervals"
    (Invalid_argument "Spec.make: at most 62 evaluation intervals are supported")
    (fun () ->
      ignore
        (Mcperf.Spec.make ~system:(line_system ()) ~demand:d
           ~goal:(Mcperf.Spec.Qos { tlat_ms = 1.; fraction = 1. })
           ()))

let test_interval_bits () =
  Alcotest.(check int) "0 bits" 0 (Mcperf.Permission.interval_bits 0);
  Alcotest.(check int) "3 bits" 0b111 (Mcperf.Permission.interval_bits 3);
  Alcotest.(check int) "62 bits" (-1 lsr 1) (Mcperf.Permission.interval_bits 62);
  Alcotest.check_raises "63 rejected"
    (Invalid_argument "Permission.interval_bits") (fun () ->
      ignore (Mcperf.Permission.interval_bits 63))

let test_placeable_origin_only () =
  (* With no placeable site, node 3\'s demand is uncoverable and the class
     is infeasible; node-1-only demand (origin-covered) stays feasible. *)
  let spec = qos_spec () in
  let none = Array.make 4 false in
  let perm = Mcperf.Permission.compute ~placeable:none spec Mcperf.Classes.general in
  Alcotest.(check bool) "infeasible without sites" false
    (Mcperf.Permission.feasible perm);
  let demand =
    Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
      ~reads:[| [| cell 1 0 5. |] |] ()
  in
  let spec1 =
    Mcperf.Spec.make ~system:(line_system ()) ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 1. })
      ()
  in
  let perm1 =
    Mcperf.Permission.compute ~placeable:none spec1 Mcperf.Classes.general
  in
  Alcotest.(check bool) "origin suffices" true (Mcperf.Permission.feasible perm1)

let test_placeable_subset_raises_bound () =
  (* Restricting placement to node 2 only: node 3\'s reads must be served
     from node 2, same minimal cost here (one replica, 4 intervals). *)
  let spec = qos_spec () in
  let only2 = [| false; false; true; false |] in
  let perm = Mcperf.Permission.compute ~placeable:only2 spec Mcperf.Classes.general in
  Alcotest.(check bool) "feasible via node 2" true
    (Mcperf.Permission.feasible perm);
  let model = Mcperf.Model.build perm in
  (match Lp.Simplex.solve model.Mcperf.Model.problem with
  | Lp.Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "cost" 5. objective
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> Alcotest.fail "LP failed");
  (* And node 3 itself must have no store support. *)
  Alcotest.(check bool) "node 3 restricted" false
    (Mcperf.Permission.store_possible perm ~node:3 ~interval:1 ~object_id:0)

(* --- evaluation-interval theory (Theorems 2-3) --------------------------- *)

let test_interval_theorem2 () =
  Alcotest.(check bool) "same interval" true
    (Mcperf.Interval.covers_heuristic_interval ~delta_s:3600.
       ~heuristic_delta_s:3600.);
  Alcotest.(check bool) "double covers" true
    (Mcperf.Interval.covers_heuristic_interval ~delta_s:3600.
       ~heuristic_delta_s:7200.);
  Alcotest.(check bool) "1.5x does not" false
    (Mcperf.Interval.covers_heuristic_interval ~delta_s:3600.
       ~heuristic_delta_s:5400.)

let test_interval_gaps () =
  (* Node 3 reads object 0 at t=0, 10, 25: gaps 10 and 15 (self-interaction
     is within reach). *)
  let sys = line_system () in
  let t =
    Workload.Trace.of_events ~nodes:4 ~objects:1 ~duration_s:100.
      [
        (0., 3, 0, Workload.Trace.Read);
        (10., 3, 0, Workload.Trace.Read);
        (25., 3, 0, Workload.Trace.Read);
      ]
  in
  (match Mcperf.Interval.min_interaction_gaps sys ~tlat_ms:150. t with
  | Some (m1, m2) ->
    Alcotest.(check (float 1e-9)) "m1" 10. m1;
    Alcotest.(check (float 1e-9)) "m2" 15. m2
  | None -> Alcotest.fail "expected gaps");
  (* 2*m1 = 20 >= m2 = 15 -> delta = m1/2 = 5. *)
  match Mcperf.Interval.per_access_delta sys ~tlat_ms:150. t with
  | Some d -> Alcotest.(check (float 1e-9)) "delta" 5. d
  | None -> Alcotest.fail "expected a delta"

let test_interval_gaps_sparse () =
  (* Gaps 10 and 30: 2*m1 < m2 -> delta = m1. *)
  let sys = line_system () in
  let t =
    Workload.Trace.of_events ~nodes:4 ~objects:1 ~duration_s:100.
      [
        (0., 3, 0, Workload.Trace.Read);
        (10., 3, 0, Workload.Trace.Read);
        (40., 3, 0, Workload.Trace.Read);
      ]
  in
  match Mcperf.Interval.per_access_delta sys ~tlat_ms:150. t with
  | Some d -> Alcotest.(check (float 1e-9)) "delta = m1" 10. d
  | None -> Alcotest.fail "expected a delta"

let test_interval_non_interacting () =
  (* Nodes 0 and 3 are 300 ms apart (> 150): their accesses do not
     interact, and each accesses the object only once. *)
  let sys = line_system () in
  let t =
    Workload.Trace.of_events ~nodes:4 ~objects:1 ~duration_s:100.
      [ (0., 0, 0, Workload.Trace.Read); (10., 3, 0, Workload.Trace.Read) ]
  in
  Alcotest.(check bool) "no interacting gaps" true
    (Mcperf.Interval.min_interaction_gaps sys ~tlat_ms:150. t = None)

let test_intervals_for () =
  let t =
    Workload.Trace.of_events ~nodes:1 ~objects:1 ~duration_s:100.
      [ (0., 0, 0, Workload.Trace.Read) ]
  in
  Alcotest.(check int) "ceil" 34 (Mcperf.Interval.intervals_for t ~delta_s:3.);
  Alcotest.(check int) "exact" 10 (Mcperf.Interval.intervals_for t ~delta_s:10.)

(* --- Theorem 1: SET-COVER reduces to MC-PERF ----------------------------- *)

(* Build the reduction from the appendix: candidate-set nodes C, element
   nodes E; dist(c, e) = 1 iff set c covers element e; one object, one
   interval, demand 1 on each element node, 100% QoS, alpha = 1, beta = 0.
   The topology realizes the dist matrix with edge latency 100 and
   threshold 150 (everything else is further). The IP optimum equals the
   minimum cover size. *)
let set_cover_instance ~num_sets ~num_elements ~covers =
  (* Node layout: 0 = origin (far away), 1..num_sets = candidate sets,
     num_sets+1 .. num_sets+num_elements = elements. *)
  let n = 1 + num_sets + num_elements in
  let edges = ref [] in
  (* Chain everything to the origin with 1000 ms links so the graph is
     connected but the origin never covers anything. *)
  for v = 1 to n - 1 do
    edges := (0, v, 1000.) :: !edges
  done;
  List.iter
    (fun (set_id, elem_id) ->
      edges := (1 + set_id, 1 + num_sets + elem_id, 100.) :: !edges)
    covers;
  let g = Topology.Graph.of_edges n !edges in
  let sys = Topology.System.make ~origin:0 g in
  let reads =
    [|
      Array.init num_elements (fun e ->
          cell (1 + num_sets + e) 0 1.)
      |> Array.to_list |> List.sort compare |> Array.of_list;
    |]
  in
  let demand =
    Workload.Demand.create ~nodes:n ~intervals:1 ~interval_s:3600. ~reads ()
  in
  let costs = { Mcperf.Spec.default_costs with alpha = 1.; beta = 0.0001 } in
  Mcperf.Spec.make ~system:sys ~demand ~costs
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 1. })
    ()

let test_set_cover_reduction () =
  (* Sets: s0 = {e0, e1}, s1 = {e1, e2}, s2 = {e2, e3}. Minimum cover of
     {e0..e3} is 2 (s0 and s2). *)
  let covers = [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 2); (2, 3) ] in
  let spec = set_cover_instance ~num_sets:3 ~num_elements:4 ~covers in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let model = Mcperf.Model.build perm in
  (match Ipsolve.Branch_bound.solve model.Mcperf.Model.problem with
  | Ipsolve.Branch_bound.Optimal { objective; _ } ->
    (* Each chosen set pays alpha (1) + beta (0.0001). *)
    Alcotest.(check (float 1e-3)) "minimum cover = 2" 2. objective
  | Ipsolve.Branch_bound.Infeasible -> Alcotest.fail "reduction infeasible"
  | Ipsolve.Branch_bound.Node_limit _ -> Alcotest.fail "node limit");
  (* The LP relaxation may be fractional but never exceeds the IP value. *)
  match Lp.Simplex.solve model.Mcperf.Model.problem with
  | Lp.Simplex.Optimal { objective; _ } ->
    Alcotest.(check bool) "LP <= IP" true (objective <= 2.0002 +. 1e-9)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
    Alcotest.fail "LP should be solvable"

let test_set_cover_lp_fractional_instance () =
  (* Triangle cover: 3 sets {e0,e1} {e1,e2} {e0,e2}; IP = 2, LP = 1.5. *)
  let covers = [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 0); (2, 2) ] in
  let spec = set_cover_instance ~num_sets:3 ~num_elements:3 ~covers in
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  let model = Mcperf.Model.build perm in
  (match Lp.Simplex.solve model.Mcperf.Model.problem with
  | Lp.Simplex.Optimal { objective; _ } ->
    Alcotest.(check bool) "LP about 1.5" true
      (Float.abs (objective -. 1.50015) < 0.01)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> Alcotest.fail "LP failed");
  match Ipsolve.Branch_bound.solve model.Mcperf.Model.problem with
  | Ipsolve.Branch_bound.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-3)) "IP = 2" 2. objective
  | Ipsolve.Branch_bound.Infeasible | Ipsolve.Branch_bound.Node_limit _ ->
    Alcotest.fail "IP failed"

let () =
  Alcotest.run "mcperf"
    [
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "interval cap" `Quick
            test_spec_rejects_too_many_intervals;
        ] );
      ( "placement-sites",
        [
          Alcotest.test_case "interval bits" `Quick test_interval_bits;
          Alcotest.test_case "origin only" `Quick test_placeable_origin_only;
          Alcotest.test_case "subset" `Quick test_placeable_subset_raises_bound;
        ] );
      ( "permission",
        [
          Alcotest.test_case "general" `Quick test_permission_general;
          Alcotest.test_case "caching reactive" `Quick
            test_permission_caching_reactive;
          Alcotest.test_case "cooperative window" `Quick
            test_permission_cooperative_window;
          Alcotest.test_case "prefetch proactive" `Quick
            test_permission_prefetch_proactive;
          Alcotest.test_case "max feasible qos" `Quick test_max_feasible_qos;
          QCheck_alcotest.to_alcotest prop_permission_matches_dense;
        ] );
      ( "bounds-exact",
        [
          Alcotest.test_case "general" `Quick test_general_bound_exact;
          Alcotest.test_case "general = IP" `Quick
            test_general_bound_matches_ip;
          Alcotest.test_case "storage constrained" `Quick test_sc_bound_exact;
          Alcotest.test_case "storage per-node" `Quick
            test_sc_per_node_bound_exact;
          Alcotest.test_case "replica constrained" `Quick test_rc_bound_exact;
          Alcotest.test_case "classes dominate general" `Quick
            test_class_bounds_dominate_general;
          Alcotest.test_case "lower qos cheaper" `Quick
            test_lower_qos_is_cheaper;
          Alcotest.test_case "origin covers for free" `Quick
            test_origin_covered_demand_is_free;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "write cost" `Quick test_write_cost_extension;
          Alcotest.test_case "penalty" `Quick test_penalty_extension;
          Alcotest.test_case "open cost" `Quick test_open_cost_extension;
          Alcotest.test_case "average latency" `Quick test_avg_latency_goal;
        ] );
      ( "costing",
        [
          Alcotest.test_case "storage and creation" `Quick
            test_costing_storage_creation;
          Alcotest.test_case "multiple creations" `Quick
            test_costing_multiple_creations;
          Alcotest.test_case "sc padding" `Quick test_costing_sc_padding;
          Alcotest.test_case "permission check" `Quick
            test_costing_respects_permissions;
        ] );
      ( "interval-theory",
        [
          Alcotest.test_case "theorem 2" `Quick test_interval_theorem2;
          Alcotest.test_case "gaps and delta" `Quick test_interval_gaps;
          Alcotest.test_case "sparse gaps" `Quick test_interval_gaps_sparse;
          Alcotest.test_case "non-interacting" `Quick
            test_interval_non_interacting;
          Alcotest.test_case "interval count" `Quick test_intervals_for;
        ] );
      ( "set-cover",
        [
          Alcotest.test_case "reduction optimum" `Quick
            test_set_cover_reduction;
          Alcotest.test_case "fractional LP instance" `Quick
            test_set_cover_lp_fractional_instance;
        ] );
    ]
