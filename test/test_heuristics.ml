(* Tests for the deployed heuristics: the event-level cache replay and
   its replacement policies (against the reference simulator in
   event_cache_reference.ml too), the centralized greedy placements, and
   the minimal-parameter searches. *)

let cell n i c : Workload.Demand.cell = { node = n; interval = i; count = c }

(* --- event-level cache replay ---------------------------------------------- *)

(* Line 0 -- 1 -- 2 -- 3, 100 ms hops, origin 0, Tlat 150: node 3 misses
   to the origin take 300 ms. *)
let line_system () =
  let g =
    Topology.Graph.of_edges 4 [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ]
  in
  Topology.System.make ~origin:0 g

let simple_trace events =
  Workload.Trace.of_events ~nodes:4 ~objects:3 ~duration_s:4. events

(* One plan, replayed at one capacity. *)
let simulate ~system ~trace ~intervals ?(costs = Mcperf.Spec.default_costs)
    ?(tlat_ms = 150.) ~capacity ~mode ?prefetch ?placeable ?policy () =
  Heuristics.Event_cache.replay
    (Heuristics.Event_cache.plan ~system ~trace ~intervals ~costs ~tlat_ms
       ~mode ?prefetch ?placeable ?policy ())
    ~capacity

let sim ?(capacity = 2) ?(mode = Heuristics.Event_cache.Local)
    ?(prefetch = false) trace =
  simulate ~system:(line_system ()) ~trace ~intervals:4 ~capacity ~mode
    ~prefetch ()

(* One cache seen from outside: node 3 of the line reads [reads] in
   order, one read per second, the horizon cut into [intervals] equal
   intervals. *)
let node3_reads ?(policy = Heuristics.Policy_cache.Lru) ?(intervals = 1)
    ?(prefetch = false) ~capacity reads =
  let n = List.length reads in
  let trace =
    Workload.Trace.of_events ~nodes:4
      ~objects:(1 + List.fold_left max 0 reads)
      ~duration_s:(float_of_int (max 1 n))
      (List.mapi
         (fun i k -> (float_of_int i +. 0.5, 3, k, Workload.Trace.Read))
         reads)
  in
  simulate ~system:(line_system ()) ~trace ~intervals ~capacity
    ~mode:Heuristics.Event_cache.Local ~prefetch ~policy ()

(* The objects node 3 held when interval [iv] closed, ascending. *)
let held_at (o : Heuristics.Event_cache.outcome) iv =
  let row = o.Heuristics.Event_cache.placement.(3) in
  List.filter
    (fun k -> row.(k) land (1 lsl iv) <> 0)
    (List.init (Array.length row) Fun.id)

(* --- LRU replacement ------------------------------------------------------ *)

let test_lru_basic () =
  (* Capacity 2: interval 0 reads 1 and 2, interval 1 reads 1 again (a
     hit that makes it most recent) and then 3, which evicts 2. *)
  let o = node3_reads ~intervals:2 ~capacity:2 [ 1; 2; 1; 3 ] in
  Alcotest.(check (list int)) "1 and 2 cached" [ 1; 2 ] (held_at o 0);
  Alcotest.(check int) "one hit" 1 o.Heuristics.Event_cache.hits_local;
  Alcotest.(check int) "three fills" 3 o.Heuristics.Event_cache.insertions;
  Alcotest.(check (list int)) "2 evicted, not 1" [ 1; 3 ] (held_at o 1)

let test_lru_duplicate_insert () =
  (* With prefetch, interval 1 preloads 2 (read twice) and then 3. 2 is
     already cached, so its preload refreshes it without a fill, and 3
     evicts 1, the least recent. *)
  let o =
    node3_reads ~intervals:2 ~prefetch:true ~capacity:2 [ 1; 2; 1; 2; 2; 3 ]
  in
  Alcotest.(check (list int)) "interval 0" [ 1; 2 ] (held_at o 0);
  Alcotest.(check int) "reinsert is refresh" 3
    o.Heuristics.Event_cache.insertions;
  Alcotest.(check int) "every read a hit" 6 o.Heuristics.Event_cache.hits_local;
  Alcotest.(check (list int)) "1 evicted" [ 2; 3 ] (held_at o 1)

let test_lru_zero_capacity () =
  let o = node3_reads ~capacity:0 [ 7; 7 ] in
  Alcotest.(check int) "cannot retain" 2 o.Heuristics.Event_cache.misses;
  Alcotest.(check int) "no fill" 0 o.Heuristics.Event_cache.insertions;
  Alcotest.(check (list int)) "still empty" [] (held_at o 0)

let prop_lru_never_exceeds_capacity =
  QCheck2.Test.make ~count:100 ~name:"lru size <= capacity; eviction is LRU"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 200) (int_range 0 20)))
    (fun (cap, ops) ->
      (* Reference model: list of keys, most recent first, and the hits
         so far; every prefix of the reads is replayed against it. *)
      let model = ref [] and hits = ref 0 and prefix = ref [] in
      List.for_all
        (fun k ->
          if List.mem k !model then begin
            incr hits;
            model := k :: List.filter (fun x -> x <> k) !model
          end
          else model := List.filteri (fun i _ -> i < cap) (k :: !model);
          prefix := k :: !prefix;
          let o = node3_reads ~capacity:cap (List.rev !prefix) in
          o.Heuristics.Event_cache.hits_local = !hits
          && List.length (held_at o 0) <= cap
          && held_at o 0 = List.sort compare !model)
        ops)

let test_cache_hit_miss_accounting () =
  let t =
    simple_trace
      [
        (0.1, 3, 0, Workload.Trace.Read);  (* miss -> origin, 300ms *)
        (0.2, 3, 0, Workload.Trace.Read);  (* hit, 0ms *)
        (0.3, 3, 1, Workload.Trace.Read);  (* miss *)
        (0.4, 3, 0, Workload.Trace.Read);  (* hit *)
      ]
  in
  let o = sim t in
  Alcotest.(check int) "misses" 2 o.Heuristics.Event_cache.misses;
  Alcotest.(check int) "local hits" 2 o.Heuristics.Event_cache.hits_local;
  Alcotest.(check int) "insertions" 2 o.Heuristics.Event_cache.insertions;
  (* QoS of node 3: 2 of 4 reads within 150ms. *)
  Alcotest.(check (float 1e-9)) "node 3 qos" 0.5 o.Heuristics.Event_cache.qos.(3);
  (* Provisioned cost: capacity 2 on 3 sites for 4 intervals + 2 fills. *)
  Alcotest.(check (float 1e-9)) "provisioned" 26.
    o.Heuristics.Event_cache.provisioned_cost

let test_cache_eviction_under_pressure () =
  let t =
    simple_trace
      [
        (0.1, 3, 0, Workload.Trace.Read);
        (0.2, 3, 1, Workload.Trace.Read);
        (0.3, 3, 2, Workload.Trace.Read);  (* evicts object 0 *)
        (0.4, 3, 0, Workload.Trace.Read);  (* miss again *)
      ]
  in
  let o = sim t in
  Alcotest.(check int) "all four miss" 4 o.Heuristics.Event_cache.misses

let test_origin_node_reads_are_free () =
  let t = simple_trace [ (0.1, 0, 0, Workload.Trace.Read) ] in
  let o = sim t in
  Alcotest.(check int) "no miss at origin" 0 o.Heuristics.Event_cache.misses;
  Alcotest.(check (float 1e-9)) "origin qos" 1. o.Heuristics.Event_cache.qos.(0)

let test_near_origin_miss_is_covered () =
  (* Node 1 is 100 ms from the origin: even misses are within Tlat. *)
  let t = simple_trace [ (0.1, 1, 0, Workload.Trace.Read) ] in
  let o = sim ~capacity:0 t in
  Alcotest.(check int) "miss counted" 1 o.Heuristics.Event_cache.misses;
  Alcotest.(check (float 1e-9)) "node 1 qos" 1. o.Heuristics.Event_cache.qos.(1)

let test_cooperative_fetches_from_peer () =
  (* Node 2 caches object 0; node 3's miss can then be served by node 2
     (100 ms <= 150) instead of the origin (300 ms). *)
  let t =
    simple_trace
      [
        (0.1, 2, 0, Workload.Trace.Read);  (* node 2 miss -> caches it *)
        (0.2, 3, 0, Workload.Trace.Read);  (* coop: remote hit at node 2 *)
      ]
  in
  let local = sim ~mode:Heuristics.Event_cache.Local t in
  Alcotest.(check (float 1e-9)) "local: node 3 uncovered" 0.
    local.Heuristics.Event_cache.qos.(3);
  let coop = sim ~mode:Heuristics.Event_cache.Cooperative t in
  Alcotest.(check int) "remote hit" 1 coop.Heuristics.Event_cache.hits_remote;
  Alcotest.(check (float 1e-9)) "coop: node 3 covered" 1.
    coop.Heuristics.Event_cache.qos.(3)

let test_prefetch_covers_first_access () =
  (* With the oracle prefetcher, node 3's interval-0 read is preloaded. *)
  let t = simple_trace [ (0.5, 3, 0, Workload.Trace.Read) ] in
  let plain = sim t in
  Alcotest.(check (float 1e-9)) "plain: cold miss" 0.
    plain.Heuristics.Event_cache.qos.(3);
  let pf = sim ~prefetch:true t in
  Alcotest.(check (float 1e-9)) "prefetch: covered" 1.
    pf.Heuristics.Event_cache.qos.(3);
  Alcotest.(check int) "prefetch insertion" 1
    pf.Heuristics.Event_cache.insertions

let test_write_messages () =
  let t =
    simple_trace
      [
        (0.1, 3, 0, Workload.Trace.Read);  (* node 3 caches object 0 *)
        (0.2, 1, 0, Workload.Trace.Write);  (* update: 1 cached copy *)
      ]
  in
  let costs = { Mcperf.Spec.default_costs with delta = 1. } in
  let o =
    simulate ~system:(line_system ()) ~trace:t ~intervals:4 ~costs
      ~capacity:2 ~mode:Heuristics.Event_cache.Local ()
  in
  Alcotest.(check (float 1e-9)) "one update message" 1.
    o.Heuristics.Event_cache.write_messages


let test_interval_limit () =
  (* The placement packs each (node, object) interval set into a native
     int, as the spec does, so the simulator takes 1..max_intervals
     intervals and rejects anything outside. At the limit, node 3 holds
     object 0 from its first access onward. *)
  let max = Mcperf.Spec.max_intervals in
  let t =
    Workload.Trace.of_events ~nodes:4 ~objects:3
      ~duration_s:(float_of_int max)
      [ (10.5, 3, 0, Workload.Trace.Read) ]
  in
  let run intervals =
    simulate ~system:(line_system ()) ~trace:t ~intervals ~capacity:2
      ~mode:Heuristics.Event_cache.Local ()
  in
  let held =
    let p = (run max).Heuristics.Event_cache.placement in
    fun iv -> p.(3).(0) land (1 lsl iv) <> 0
  in
  Alcotest.(check bool) "not cached before access" false (held 9);
  Alcotest.(check bool) "cached at access interval" true (held 10);
  Alcotest.(check bool) "still cached at the end" true (held (max - 1));
  List.iter
    (fun intervals ->
      Alcotest.check_raises
        (Printf.sprintf "%d intervals rejected" intervals)
        (Invalid_argument
           (Printf.sprintf "Event_cache.plan: intervals must be in 1..%d"
              max))
        (fun () -> ignore (run intervals)))
    [ 0; max + 1 ]

let test_trace_wider_than_system () =
  (* A trace that names a node the system lacks is rejected up front, not
     with an index error mid-replay. *)
  let t =
    Workload.Trace.of_events ~nodes:5 ~objects:2 ~duration_s:10.
      [ (1., 4, 0, Workload.Trace.Read) ]
  in
  Alcotest.check_raises "5-node trace on 4 nodes"
    (Invalid_argument "Event_cache.plan: the trace has 5 nodes, the system 4")
    (fun () ->
      ignore
        (simulate ~system:(line_system ()) ~trace:t ~intervals:2 ~capacity:1
           ~mode:Heuristics.Event_cache.Local ()))

(* --- greedy placements ----------------------------------------------------- *)

let tail_spec ?(fraction = 1.0) () =
  let demand =
    Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
      ~reads:
        [| [| cell 3 0 10.; cell 3 1 10.; cell 3 2 10.; cell 3 3 10. |] |]
      ()
  in
  Mcperf.Spec.make ~system:(line_system ()) ~demand
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction })
    ()

(* A placement strategy priced at a fixed provisioning parameter: one
   place-and-evaluate, without the runner's minimal-parameter search. *)
let evaluation_at factory spec parameter =
  let module S = Heuristics.Strategy in
  let prepared =
    (factory (S.Context.of_spec spec)).S.prepare (S.workload_of_spec spec)
  in
  match (prepared.S.assess parameter).S.detail with
  | S.Evaluation e -> e
  | S.Cache_outcome _ -> Alcotest.fail "expected an interval-level evaluation"

let test_greedy_global_covers () =
  let spec = tail_spec () in
  let e = evaluation_at Heuristics.Greedy_global.strategy spec 1 in
  Alcotest.(check bool) "meets 100% goal" true e.Mcperf.Costing.meets_goal;
  (* One slot on every site (uniform SC): padding makes all 3 sites pay
     4 intervals each, plus the creation(s). *)
  Alcotest.(check bool) "cost at least 12" true (e.Mcperf.Costing.total >= 12.)

let test_greedy_global_zero_capacity () =
  let spec = tail_spec () in
  let e = evaluation_at Heuristics.Greedy_global.strategy spec 0 in
  Alcotest.(check bool) "cannot meet goal" false e.Mcperf.Costing.meets_goal;
  Alcotest.(check (float 1e-9)) "zero cost" 0. e.Mcperf.Costing.total

let test_greedy_replica_covers () =
  let spec = tail_spec () in
  let e = evaluation_at Heuristics.Greedy_replica.strategy spec 1 in
  Alcotest.(check bool) "meets goal" true e.Mcperf.Costing.meets_goal;
  (* One replica held the full horizon: 4 storage + 1 create; the uniform
     replica constraint pads nothing else (single object). *)
  Alcotest.(check (float 1e-9)) "cost" 5. e.Mcperf.Costing.total

let test_greedy_replica_sticks_to_best_node () =
  (* Two readers (1 and 3) of one object; a replica at node 2 covers both
     (100 ms each); greedy should prefer it over separate replicas. *)
  let demand =
    Workload.Demand.create ~nodes:4 ~intervals:2 ~interval_s:3600.
      ~reads:[| [| cell 1 0 5.; cell 3 0 5.; cell 1 1 5.; cell 3 1 5. |] |]
      ()
  in
  let spec =
    Mcperf.Spec.make ~system:(line_system ()) ~demand
      ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 1. })
      ()
  in
  let perm =
    Mcperf.Permission.compute spec Mcperf.Classes.replica_constrained_uniform
  in
  let placement = Heuristics.Greedy_replica.place ~perm ~replicas:1 () in
  (* Node 1 is origin-covered (100 ms from node 0), so greedy only needs
     to serve node 3; it may pick node 2 or 3. *)
  Alcotest.(check bool) "one replica placed" true
    (placement.(2).(0) <> 0 || placement.(3).(0) <> 0)


(* --- replacement policies ------------------------------------------------ *)

let test_policy_fifo_ignores_recency () =
  (* Capacity 2; read 1, 2, 1 again, then 3. FIFO evicts 1 (oldest
     insertion) even though it was just used; LRU evicts 2. *)
  let held policy = held_at (node3_reads ~policy ~capacity:2 [ 1; 2; 1; 3 ]) 0 in
  Alcotest.(check (list int)) "fifo evicts 1" [ 2; 3 ]
    (held Heuristics.Policy_cache.Fifo);
  Alcotest.(check (list int)) "lru evicts 2" [ 1; 3 ]
    (held Heuristics.Policy_cache.Lru)

let test_policy_lfu_keeps_hot () =
  (* Capacity 2; object 1 read three times, object 2 once; reading 3
     evicts the cold object 2. *)
  let o =
    node3_reads ~policy:Heuristics.Policy_cache.Lfu ~capacity:2
      [ 1; 2; 1; 1; 3 ]
  in
  Alcotest.(check (list int)) "evicts cold, keeps hot" [ 1; 3 ] (held_at o 0)

let test_policy_size_never_exceeds_capacity () =
  (* 500 random reads over ten objects in 50 intervals: no interval
     closes with more than 3 objects cached. *)
  let rng = Util.Prng.create ~seed:3 in
  let reads = List.init 500 (fun _ -> Util.Prng.int rng 10) in
  List.iter
    (fun policy ->
      let o = node3_reads ~policy ~intervals:50 ~capacity:3 reads in
      for iv = 0 to 49 do
        Alcotest.(check bool) "size bound" true (List.length (held_at o iv) <= 3)
      done)
    [ Heuristics.Policy_cache.Lru; Heuristics.Policy_cache.Fifo;
      Heuristics.Policy_cache.Lfu ]

(* --- searches ----------------------------------------------------------------- *)

let test_min_feasible_int () =
  let calls = ref 0 in
  let feasible p =
    incr calls;
    p >= 13
  in
  Alcotest.(check (option int)) "finds 13" (Some 13)
    (Sim.Search.min_feasible_int ~lo:0 ~hi:100 feasible);
  Alcotest.(check bool) "logarithmic" true (!calls <= 12);
  Alcotest.(check (option int)) "none" None
    (Sim.Search.min_feasible_int ~lo:0 ~hi:10 (fun _ -> false));
  Alcotest.(check (option int)) "lo immediately" (Some 5)
    (Sim.Search.min_feasible_int ~lo:5 ~hi:10 (fun _ -> true))

(* --- runner ---------------------------------------------------------------------- *)

let trace_for_tail_spec () =
  (* Event-level version of the tail demand: node 3 reads object 0 ten
     times in each of four intervals (duration 4 h, 1 h intervals). *)
  let events = ref [] in
  for i = 0 to 3 do
    for r = 0 to 9 do
      events :=
        ( (float_of_int i *. 3600.) +. (float_of_int r *. 60.),
          3,
          0,
          Workload.Trace.Read )
        :: !events
    done
  done;
  Workload.Trace.of_events ~nodes:4 ~objects:1 ~duration_s:14400. !events

(* The one deployment route: a strategy factory through the offline
   runner's minimal-parameter search. *)
let deploy ?trace factory spec =
  Sim.Runner.deploy_offline ?trace ~factory ~spec ()

let test_policy_runner_entrypoint () =
  (* All policies cost at least the LRU-class bound; on this simple trace
     they find the same minimal capacity. *)
  let spec = tail_spec ~fraction:0.9 () in
  let trace = trace_for_tail_spec () in
  List.iter
    (fun policy ->
      match deploy ~trace (Heuristics.Cache_strategy.policy policy) spec with
      | Some d ->
        Alcotest.(check int)
          (Heuristics.Policy_cache.kind_name policy ^ " capacity")
          1 d.Sim.Runner.parameter
      | None -> Alcotest.fail "policy caching should be feasible at 90%")
    [ Heuristics.Policy_cache.Lru; Heuristics.Policy_cache.Fifo;
      Heuristics.Policy_cache.Lfu ]

let test_runner_lru_infeasible_at_100 () =
  (* The first access is always a cold miss 300 ms from the origin, so no
     capacity reaches 100%. *)
  let spec = tail_spec () in
  let trace = trace_for_tail_spec () in
  Alcotest.(check bool) "infeasible" true
    (deploy ~trace Heuristics.Cache_strategy.lru spec = None)

let test_runner_lru_feasible_at_90 () =
  let spec = tail_spec ~fraction:0.9 () in
  let trace = trace_for_tail_spec () in
  match deploy ~trace Heuristics.Cache_strategy.lru spec with
  | None -> Alcotest.fail "expected feasible"
  | Some d ->
    Alcotest.(check int) "capacity 1" 1 d.Sim.Runner.parameter;
    (* 39/40 covered = 0.975 >= 0.9. *)
    Alcotest.(check bool) "qos" true (d.Sim.Runner.worst_qos >= 0.9);
    (* Cost: capacity 1 * 3 sites * 4 intervals + 1 fill = 13. *)
    Alcotest.(check (float 1e-9)) "cost" 13. d.Sim.Runner.cost

let test_runner_prefetch_feasible_at_100 () =
  let spec = tail_spec () in
  let trace = trace_for_tail_spec () in
  match deploy ~trace Heuristics.Cache_strategy.prefetching spec with
  | None -> Alcotest.fail "prefetching should reach 100%"
  | Some d -> Alcotest.(check bool) "qos 1" true (d.Sim.Runner.worst_qos >= 1.)

let test_runner_greedy_cheaper_than_caching () =
  (* The paper's headline: the right class beats caching. Here the
     replica-constrained greedy (5) beats LRU (13) at 90%. *)
  let spec = tail_spec ~fraction:0.9 () in
  let trace = trace_for_tail_spec () in
  match
    ( deploy Heuristics.Greedy_replica.strategy spec,
      deploy ~trace Heuristics.Cache_strategy.lru spec )
  with
  | Some gr, Some lru ->
    Alcotest.(check bool) "greedy wins" true (gr.Sim.Runner.cost < lru.Sim.Runner.cost)
  | _ -> Alcotest.fail "both should be feasible"

let test_runner_costs_at_least_class_bound () =
  (* Deployed heuristics can never beat their class's lower bound. *)
  let spec = tail_spec ~fraction:0.75 () in
  let trace = trace_for_tail_spec () in
  let bound cls =
    let r = Bounds.Pipeline.compute spec cls in
    r.Bounds.Pipeline.lower_bound
  in
  (match deploy Heuristics.Greedy_replica.strategy spec with
  | Some d ->
    Alcotest.(check bool) "greedy-replica >= RC bound" true
      (d.Sim.Runner.cost
      >= bound Mcperf.Classes.replica_constrained_uniform -. 1e-6)
  | None -> Alcotest.fail "greedy-replica infeasible");
  (match deploy Heuristics.Greedy_global.strategy spec with
  | Some d ->
    Alcotest.(check bool) "greedy-global >= SC bound" true
      (d.Sim.Runner.cost >= bound Mcperf.Classes.storage_constrained -. 1e-6)
  | None -> Alcotest.fail "greedy-global infeasible");
  match deploy ~trace Heuristics.Cache_strategy.lru spec with
  | Some d ->
    Alcotest.(check bool) "lru >= caching bound" true
      (d.Sim.Runner.cost >= bound Mcperf.Classes.caching -. 1e-6)
  | None -> Alcotest.fail "lru infeasible"




(* --- pinned deployments ---------------------------------------------------- *)

module CS = Replica_select.Case_study

(* The case-study grids the deployments are pinned on: name, instance and
   goals. The 20-node grid covers WEB and GROUP at two goals; the 10-node
   GROUP grid is where hierarchical caching meets its goal at all. *)
let golden_grids () =
  let twenty w = CS.make ~seed:2004 ~scale:0.02 w in
  [
    ("web-s0.02", twenty CS.Web, [ 0.95; 0.999 ]);
    ("group-s0.02", twenty CS.Group, [ 0.95; 0.999 ]);
    ( "group-n10-s0.006-i12",
      CS.make ~seed:2004 ~nodes:10 ~scale:0.006 ~intervals:12 CS.Group,
      [ 0.95 ] );
    (* The steady benchmark's own deployment instances (perfbench/harness.ml,
       workload deploy), so a faster replay must keep its traffic's bytes. *)
    ( "bench-web-n10-s0.006-i12",
      CS.make ~nodes:10 ~scale:0.006 ~intervals:12 CS.Web,
      [ 0.95; 0.99 ] );
    ( "bench-group-n10-s0.005-i12",
      CS.make ~nodes:10 ~scale:0.005 ~intervals:12 CS.Group,
      [ 0.95; 0.99 ] );
  ]

(* Every registered strategy deployed on every grid, one "label md5" line
   each in fixtures/strategy_deployments.golden. The MD5 is over an
   explicit tuple of the deployment's fields (name, parameter, cost, QoS,
   placement) and of its evaluation's or cache outcome's fields,
   marshaled without sharing and pinned against an earlier build; the
   tuple keeps the pin independent of record layouts. *)
let golden_deployments () =
  List.concat_map
    (fun (name, (cs : CS.t), fractions) ->
      List.concat_map
        (fun fraction ->
          let spec = CS.qos_spec cs ~fraction ~for_bounds:false () in
          List.map
            (fun (label, factory) ->
              ( Printf.sprintf "%s/%s@%g" name label fraction,
                fun () -> deploy ~trace:cs.CS.trace factory spec ))
            Heuristics.Registry.builtin)
        fractions)
    (golden_grids ())

let deployment_view (d : Sim.Runner.deployed) =
  ( d.Sim.Runner.name,
    d.Sim.Runner.parameter,
    d.Sim.Runner.cost,
    d.Sim.Runner.worst_qos,
    d.Sim.Runner.placement,
    match d.Sim.Runner.detail with
    | Heuristics.Strategy.Evaluation e ->
      Either.Left
        ( e.Mcperf.Costing.storage,
          e.Mcperf.Costing.creation,
          e.Mcperf.Costing.sc_padding,
          e.Mcperf.Costing.rc_padding,
          e.Mcperf.Costing.write_cost,
          e.Mcperf.Costing.penalty,
          e.Mcperf.Costing.open_cost,
          e.Mcperf.Costing.total,
          e.Mcperf.Costing.qos,
          e.Mcperf.Costing.avg_latency,
          e.Mcperf.Costing.meets_goal )
    | Heuristics.Strategy.Cache_outcome o ->
      Either.Right
        ( o.Heuristics.Event_cache.hits_local,
          o.Heuristics.Event_cache.hits_remote,
          o.Heuristics.Event_cache.misses,
          o.Heuristics.Event_cache.insertions,
          o.Heuristics.Event_cache.qos,
          o.Heuristics.Event_cache.avg_latency,
          o.Heuristics.Event_cache.provisioned_cost,
          o.Heuristics.Event_cache.write_messages ) )

let test_golden_deployments () =
  let digest d =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string (Option.map deployment_view d)
            [ Marshal.No_sharing ]))
  in
  let ic = open_in "fixtures/strategy_deployments.golden" in
  let rec read acc =
    match input_line ic with
    | line -> (
      match String.split_on_char ' ' line with
      | [ label; md5 ] -> read ((label, md5) :: acc)
      | _ -> Alcotest.failf "malformed golden line %S" line)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let expected = read [] in
  let actual =
    List.map (fun (label, run) -> (label, digest (run ()))) (golden_deployments ())
  in
  Alcotest.(check (list (pair string string)))
    "every deployment matches its pinned digest" expected actual

(* The minimal-parameter search bisects ({!Sim.Search}), so it returns
   the minimal goal-meeting parameter only if meeting the goal is
   monotone in the parameter. The inclusion property argues it for LRU
   and growth for the greedy placements, but not for FIFO (Belady's
   anomaly), so every parameter from 0 to the ceiling is assessed here,
   for every registered strategy on every pinned grid: once a parameter
   meets the goal, every larger one must too. *)
let test_feasibility_monotone () =
  List.iter
    (fun (name, (cs : CS.t), fractions) ->
      List.iter
        (fun fraction ->
          let spec = CS.qos_spec cs ~fraction ~for_bounds:false () in
          let workload =
            Heuristics.Strategy.workload_of_spec ~trace:cs.CS.trace spec
          in
          List.iter
            (fun (label, factory) ->
              let strategy =
                factory (Heuristics.Strategy.Context.of_spec spec)
              in
              let prepared = strategy.Heuristics.Strategy.prepare workload in
              let met = ref None in
              for p = 0 to prepared.Heuristics.Strategy.ceiling do
                let ok =
                  (prepared.Heuristics.Strategy.assess p)
                    .Heuristics.Strategy.meets_goal
                in
                match !met with
                | Some q when not ok ->
                  Alcotest.failf "%s/%s@%g: meets the goal at %d, not at %d"
                    name label fraction q p
                | None when ok -> met := Some p
                | _ -> ()
              done)
            Heuristics.Registry.builtin)
        fractions)
    (golden_grids ())

let test_hierarchical_no_intra_cluster_duplication () =
  (* With a 350 ms radius the whole line is one cluster; after node 2
     caches object 0, node 3's read is served by node 2 without creating
     a second copy. Plain cooperative caching duplicates. *)
  let t =
    simple_trace
      [
        (0.1, 2, 0, Workload.Trace.Read);
        (0.2, 3, 0, Workload.Trace.Read);
        (0.3, 3, 0, Workload.Trace.Read);
      ]
  in
  let coop = sim ~mode:Heuristics.Event_cache.Cooperative t in
  Alcotest.(check int) "coop duplicates" 2 coop.Heuristics.Event_cache.insertions;
  let hier =
    sim ~mode:(Heuristics.Event_cache.Hierarchical { cluster_radius_ms = 350. }) t
  in
  Alcotest.(check int) "hierarchical keeps one copy" 1
    hier.Heuristics.Event_cache.insertions;
  (* All three reads are served within the threshold either way. *)
  Alcotest.(check (float 1e-9)) "node 3 covered" 1.
    hier.Heuristics.Event_cache.qos.(3)

let test_hierarchical_cross_cluster_caches_locally () =
  (* With a 50 ms radius every node is its own cluster: hierarchical mode
     degenerates to cooperative (fetch + local insert). *)
  let t =
    simple_trace
      [ (0.1, 2, 0, Workload.Trace.Read); (0.2, 3, 0, Workload.Trace.Read) ]
  in
  let hier =
    sim ~mode:(Heuristics.Event_cache.Hierarchical { cluster_radius_ms = 50. }) t
  in
  Alcotest.(check int) "both cache" 2 hier.Heuristics.Event_cache.insertions

let test_placement_baselines () =
  let spec = tail_spec () in
  let results =
    Heuristics.Placement_baselines.compare_strategies
      ~rng:(Util.Prng.create ~seed:5) ~spec ~replicas:1 ()
  in
  Alcotest.(check int) "three strategies" 3 (List.length results);
  let cost st =
    let _, (e : Mcperf.Costing.evaluation) =
      List.find (fun (s, _) -> s = st) results
    in
    e.Mcperf.Costing.total
  in
  (* Greedy is never worse than hotspot or random here (single reader:
     greedy picks a covering node directly). *)
  Alcotest.(check bool) "greedy <= hotspot" true
    (cost Heuristics.Placement_baselines.Greedy
    <= cost Heuristics.Placement_baselines.Hotspot +. 1e-9);
  (* Hotspot places at node 3 itself (the only demand source): covers. *)
  let _, hotspot_eval =
    List.find
      (fun (s, _) -> s = Heuristics.Placement_baselines.Hotspot)
      results
  in
  Alcotest.(check bool) "hotspot meets goal" true
    hotspot_eval.Mcperf.Costing.meets_goal

let test_placement_baselines_respect_support () =
  (* Whatever the strategy, replicas only land on nodes with store
     support. *)
  let spec = tail_spec () in
  let perm =
    Mcperf.Permission.compute spec Mcperf.Classes.replica_constrained_uniform
  in
  List.iter
    (fun strategy ->
      let placement =
        Heuristics.Placement_baselines.place
          ~rng:(Util.Prng.create ~seed:11) ~perm ~strategy ~replicas:3 ()
      in
      Array.iteri
        (fun m per_obj ->
          Array.iteri
            (fun k mask ->
              if mask <> 0 then
                Alcotest.(check bool) "support" true
                  (perm.Mcperf.Permission.store_mask.(m).(k) <> 0))
            per_obj)
        placement)
    [ Heuristics.Placement_baselines.Random;
      Heuristics.Placement_baselines.Hotspot;
      Heuristics.Placement_baselines.Greedy ]

(* --- conservation and capacity properties --------------------------------- *)

let random_cache_scenario seed =
  let rng = Util.Prng.create ~seed in
  let nodes = 3 + Util.Prng.int rng 4 in
  let g =
    Topology.Generate.as_like ~rng ~nodes
      ~latency:Topology.Generate.default_hop_latency
  in
  let sys = Topology.System.make g in
  let objects = 2 + Util.Prng.int rng 6 in
  let n_events = 20 + Util.Prng.int rng 200 in
  let events =
    List.init n_events (fun _ ->
        ( Util.Prng.float rng 100.,
          Util.Prng.int rng nodes,
          Util.Prng.int rng objects,
          Workload.Trace.Read ))
  in
  let trace = Workload.Trace.of_events ~nodes ~objects ~duration_s:100. events in
  (sys, trace)

let prop_cache_conserves_events =
  QCheck2.Test.make ~count:50
    ~name:"cache sim: hits + misses = non-origin reads, for all policies/modes"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let sys, trace = random_cache_scenario seed in
      let origin_reads = ref 0 in
      Workload.Trace.iter
        (fun ~time:_ ~node ~object_id:_ ~kind:_ ->
          if node = sys.Topology.System.origin then incr origin_reads)
        trace;
      let expected = Workload.Trace.length trace - !origin_reads in
      List.for_all
        (fun (mode, policy, prefetch) ->
          let o =
            simulate ~system:sys ~trace ~intervals:5
              ~capacity:(1 + seed mod 4) ~mode ~prefetch ~policy ()
          in
          o.Heuristics.Event_cache.hits_local
          + o.Heuristics.Event_cache.hits_remote
          + o.Heuristics.Event_cache.misses
          = expected
          && Array.for_all
               (fun q -> q >= 0. && q <= 1.)
               o.Heuristics.Event_cache.qos)
        [
          (Heuristics.Event_cache.Local, Heuristics.Policy_cache.Lru, false);
          (Heuristics.Event_cache.Cooperative, Heuristics.Policy_cache.Lru, false);
          (Heuristics.Event_cache.Local, Heuristics.Policy_cache.Fifo, false);
          (Heuristics.Event_cache.Cooperative, Heuristics.Policy_cache.Lfu, false);
          (Heuristics.Event_cache.Local, Heuristics.Policy_cache.Lru, true);
        ])

let prop_greedy_global_respects_capacity =
  QCheck2.Test.make ~count:40
    ~name:"greedy global placement never exceeds the per-node capacity"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 13) in
      let nodes = 4 + Util.Prng.int rng 3 in
      let g =
        Topology.Generate.as_like ~rng ~nodes
          ~latency:Topology.Generate.default_hop_latency
      in
      let sys = Topology.System.make g in
      let objects = 3 + Util.Prng.int rng 5 in
      let intervals = 3 + Util.Prng.int rng 3 in
      let events =
        List.init (50 + Util.Prng.int rng 100) (fun _ ->
            ( Util.Prng.float rng 100.,
              Util.Prng.int rng nodes,
              Util.Prng.int rng objects,
              Workload.Trace.Read ))
      in
      let trace =
        Workload.Trace.of_events ~nodes ~objects ~duration_s:100. events
      in
      let demand = Workload.Demand.of_trace ~intervals trace in
      let spec =
        Mcperf.Spec.make ~system:sys ~demand
          ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.9 })
          ()
      in
      let capacity = float_of_int (1 + Util.Prng.int rng 3) in
      let perm =
        Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained
      in
      let placement = Heuristics.Greedy_global.place ~perm ~capacity () in
      let ok = ref true in
      for i = 0 to intervals - 1 do
        for m = 0 to nodes - 1 do
          let used = ref 0. in
          for k = 0 to objects - 1 do
            if placement.(m).(k) land (1 lsl i) <> 0 then
              used := !used +. demand.Workload.Demand.weight.(k)
          done;
          if !used > capacity +. 1e-9 then ok := false
        done
      done;
      !ok)

let prop_costing_components_sum =
  QCheck2.Test.make ~count:40
    ~name:"costing: total equals the sum of its components"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 29) in
      let nodes = 4 + Util.Prng.int rng 3 in
      let g =
        Topology.Generate.as_like ~rng ~nodes
          ~latency:Topology.Generate.default_hop_latency
      in
      let sys = Topology.System.make g in
      let objects = 2 + Util.Prng.int rng 4 in
      let intervals = 3 + Util.Prng.int rng 3 in
      let events =
        List.init (30 + Util.Prng.int rng 60) (fun _ ->
            ( Util.Prng.float rng 50.,
              Util.Prng.int rng nodes,
              Util.Prng.int rng objects,
              (if Util.Prng.bool rng then Workload.Trace.Read
               else Workload.Trace.Write) ))
      in
      (* Ensure at least one read. *)
      let events = (1., 0, 0, Workload.Trace.Read) :: events in
      let trace =
        Workload.Trace.of_events ~nodes ~objects ~duration_s:50. events
      in
      let demand = Workload.Demand.of_trace ~intervals trace in
      let costs =
        {
          Mcperf.Spec.alpha = 1.;
          beta = 0.5;
          gamma = 0.01;
          delta = 0.2;
          zeta = 3.;
        }
      in
      let spec =
        Mcperf.Spec.make ~system:sys ~demand ~costs
          ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.9 })
          ()
      in
      let cls = Mcperf.Classes.storage_constrained in
      let perm = Mcperf.Permission.compute spec cls in
      (* Random legal placement inside the store masks. *)
      let placement = Mcperf.Costing.empty_placement spec in
      for m = 0 to nodes - 1 do
        for k = 0 to objects - 1 do
          let mask = perm.Mcperf.Permission.store_mask.(m).(k) in
          if mask <> 0 && Util.Prng.bool rng then
            (* Keep a suffix of the support: always creation-legal. *)
            placement.(m).(k) <- mask
        done
      done;
      let e = Mcperf.Costing.evaluate perm placement in
      let parts =
        e.Mcperf.Costing.storage +. e.Mcperf.Costing.creation
        +. e.Mcperf.Costing.sc_padding +. e.Mcperf.Costing.rc_padding
        +. e.Mcperf.Costing.write_cost +. e.Mcperf.Costing.penalty
        +. e.Mcperf.Costing.open_cost
      in
      Float.abs (parts -. e.Mcperf.Costing.total)
      <= 1e-9 *. (1. +. Float.abs e.Mcperf.Costing.total)
      && Array.for_all (fun q -> q >= -1e-9 && q <= 1. +. 1e-9) e.Mcperf.Costing.qos)

(* --- differential oracle: plan and replay against the reference -------- *)

module Ref = Event_cache_reference

let reference_mode : Heuristics.Event_cache.mode -> Ref.mode = function
  | Heuristics.Event_cache.Local -> Ref.Local
  | Heuristics.Event_cache.Cooperative -> Ref.Cooperative
  | Heuristics.Event_cache.Hierarchical { cluster_radius_ms } ->
    Ref.Hierarchical { cluster_radius_ms }

let reference_policy : Heuristics.Policy_cache.kind -> Ref.Policy_cache.kind =
  function
  | Heuristics.Policy_cache.Lru -> Ref.Policy_cache.Lru
  | Heuristics.Policy_cache.Fifo -> Ref.Policy_cache.Fifo
  | Heuristics.Policy_cache.Lfu -> Ref.Policy_cache.Lfu

let policies =
  [ Heuristics.Policy_cache.Lru; Heuristics.Policy_cache.Fifo;
    Heuristics.Policy_cache.Lfu ]

(* Every outcome field, placement included, as bytes. *)
let outcome_bytes (o : Heuristics.Event_cache.outcome) =
  Marshal.to_string
    ( o.Heuristics.Event_cache.hits_local,
      o.Heuristics.Event_cache.hits_remote,
      o.Heuristics.Event_cache.misses,
      o.Heuristics.Event_cache.insertions,
      o.Heuristics.Event_cache.qos,
      o.Heuristics.Event_cache.avg_latency,
      o.Heuristics.Event_cache.provisioned_cost,
      o.Heuristics.Event_cache.write_messages,
      o.Heuristics.Event_cache.placement )
    [ Marshal.No_sharing ]

let reference_bytes (o : Ref.outcome) =
  Marshal.to_string
    ( o.Ref.hits_local,
      o.Ref.hits_remote,
      o.Ref.misses,
      o.Ref.insertions,
      o.Ref.qos,
      o.Ref.avg_latency,
      o.Ref.provisioned_cost,
      o.Ref.write_messages,
      o.Ref.placement )
    [ Marshal.No_sharing ]

(* A random small instance: 2–8 nodes, reads and writes, a random
   placeable mask, random costs and latency threshold. *)
let random_replay_instance rng =
  let nodes = 2 + Util.Prng.int rng 7 in
  let g =
    Topology.Generate.as_like ~rng ~nodes
      ~latency:Topology.Generate.default_hop_latency
  in
  let system = Topology.System.make g in
  let objects = 1 + Util.Prng.int rng 6 in
  let duration_s = 10. +. Util.Prng.float rng 90. in
  let events =
    List.init (Util.Prng.int rng 150) (fun _ ->
        ( Util.Prng.float rng duration_s,
          Util.Prng.int rng nodes,
          Util.Prng.int rng objects,
          if Util.Prng.int rng 5 = 0 then Workload.Trace.Write
          else Workload.Trace.Read ))
  in
  let trace = Workload.Trace.of_events ~nodes ~objects ~duration_s events in
  let placeable = Array.init nodes (fun _ -> Util.Prng.int rng 4 > 0) in
  let costs =
    {
      Mcperf.Spec.default_costs with
      alpha = 0.5 +. Util.Prng.float rng 2.;
      beta = Util.Prng.float rng 3.;
      delta = Util.Prng.float rng 0.5;
    }
  in
  let tlat_ms = 50. +. Util.Prng.float rng 250. in
  let intervals = 1 + Util.Prng.int rng 8 in
  let radius = Util.Prng.float rng 300. in
  (system, trace, placeable, costs, tlat_ms, intervals, radius)

let shuffled rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prop_replay_matches_reference =
  QCheck2.Test.make ~count:150
    ~name:"event cache: plan + replay = reference simulator, every field"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let system, trace, placeable, costs, tlat_ms, intervals, radius =
        random_replay_instance rng
      in
      let objects = Workload.Trace.object_count trace in
      let capacities = List.init (objects + 2) Fun.id in
      List.for_all
        (fun (mode, prefetch, policy) ->
          let plan () =
            Heuristics.Event_cache.plan ~system ~trace ~intervals ~costs
              ~tlat_ms ~mode ~prefetch ~placeable ~policy ()
          in
          let shared = plan () in
          (* One plan replayed in random order, a fresh plan each time
             and the reference must agree at every capacity. *)
          List.for_all
            (fun capacity ->
              let want =
                reference_bytes
                  (Ref.simulate ~system ~trace ~intervals ~costs ~tlat_ms
                     ~capacity ~mode:(reference_mode mode) ~prefetch
                     ~placeable ~policy:(reference_policy policy) ())
              in
              outcome_bytes (Heuristics.Event_cache.replay shared ~capacity)
              = want
              && outcome_bytes (Heuristics.Event_cache.replay (plan ()) ~capacity)
                 = want)
            (shuffled rng capacities))
        (List.concat_map
           (fun mode ->
             List.concat_map
               (fun prefetch ->
                 List.map (fun policy -> (mode, prefetch, policy)) policies)
               [ false; true ])
           [
             Heuristics.Event_cache.Local;
             Heuristics.Event_cache.Cooperative;
             Heuristics.Event_cache.Hierarchical { cluster_radius_ms = radius };
           ]))

(* Every registered strategy prepared once and assessed at each
   parameter up to its ceiling, in random order, gives the verdict of a
   fresh preparation at that parameter. *)
let prop_prepared_matches_fresh =
  QCheck2.Test.make ~count:40
    ~name:"strategies: one prepare, assessed in any order = fresh prepare"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let system, trace, placeable, _, tlat_ms, intervals, _ =
        random_replay_instance rng
      in
      let demand = Workload.Demand.of_trace ~intervals trace in
      Workload.Demand.total_reads demand <= 0.
      ||
      let spec =
        Mcperf.Spec.make ~system ~demand
          ~goal:(Mcperf.Spec.Qos { tlat_ms; fraction = 0.8 })
          ()
      in
      let ctx = Heuristics.Strategy.Context.of_spec ~placeable spec in
      let workload = Heuristics.Strategy.workload_of_spec ~trace spec in
      let verdict_bytes (v : Heuristics.Strategy.verdict) =
        Marshal.to_string v [ Marshal.No_sharing ]
      in
      List.for_all
        (fun (_, factory) ->
          let prepare () =
            (factory ctx).Heuristics.Strategy.prepare workload
          in
          let shared = prepare () in
          List.for_all
            (fun p ->
              verdict_bytes (shared.Heuristics.Strategy.assess p)
              = verdict_bytes ((prepare ()).Heuristics.Strategy.assess p))
            (shuffled rng (List.init (shared.Heuristics.Strategy.ceiling + 1) Fun.id)))
        Heuristics.Registry.builtin)

(* Leaf nodes that never read, hold no cache and sit farther than the
   cluster radius from every node change nothing for the others, however
   many there are: the replay has no node limit. *)
let prop_idle_leaves_change_nothing =
  QCheck2.Test.make ~count:20
    ~name:"event cache: idle leaves beyond 62 nodes change no original field"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let nodes = 3 + Util.Prng.int rng 4 in
      let g =
        Topology.Generate.as_like ~rng ~nodes
          ~latency:Topology.Generate.default_hop_latency
      in
      let radius = 150. in
      let leaves = 62 - nodes + 1 + Util.Prng.int rng 6 in
      let wide =
        Topology.Graph.of_edges (nodes + leaves)
          (Topology.Graph.edges g
          @ List.init leaves (fun l ->
                (Util.Prng.int rng nodes, nodes + l, 1000. +. Util.Prng.float rng 100.)))
      in
      let origin = Topology.Generate.headquarters g in
      let objects = 1 + Util.Prng.int rng 5 in
      let events =
        List.init (20 + Util.Prng.int rng 150) (fun _ ->
            ( Util.Prng.float rng 60.,
              Util.Prng.int rng nodes,
              Util.Prng.int rng objects,
              if Util.Prng.int rng 5 = 0 then Workload.Trace.Write
              else Workload.Trace.Read ))
      in
      let run ~total graph =
        let system = Topology.System.make ~origin graph in
        let trace =
          Workload.Trace.of_events ~nodes:total ~objects ~duration_s:60. events
        in
        let placeable = Array.init total (fun n -> n < nodes) in
        fun ~mode ~prefetch ~policy ~capacity ->
          simulate ~system ~trace ~intervals:4
            ~costs:{ Mcperf.Spec.default_costs with delta = 0.3 }
            ~capacity ~mode ~prefetch ~placeable ~policy ()
      in
      let narrow = run ~total:nodes g and wide = run ~total:(nodes + leaves) wide in
      let original (o : Heuristics.Event_cache.outcome) =
        Marshal.to_string
          ( o.Heuristics.Event_cache.hits_local,
            o.Heuristics.Event_cache.hits_remote,
            o.Heuristics.Event_cache.misses,
            o.Heuristics.Event_cache.insertions,
            Array.sub o.Heuristics.Event_cache.qos 0 nodes,
            Array.sub o.Heuristics.Event_cache.avg_latency 0 nodes,
            o.Heuristics.Event_cache.provisioned_cost,
            o.Heuristics.Event_cache.write_messages,
            Array.sub o.Heuristics.Event_cache.placement 0 nodes )
          [ Marshal.No_sharing ]
      in
      let idle (o : Heuristics.Event_cache.outcome) =
        let rec from n =
          n >= nodes + leaves
          || o.Heuristics.Event_cache.qos.(n) = 1.
             && o.Heuristics.Event_cache.avg_latency.(n) = 0.
             && Array.for_all (( = ) 0) o.Heuristics.Event_cache.placement.(n)
             && from (n + 1)
        in
        from nodes
      in
      List.for_all
        (fun mode ->
          List.for_all
            (fun (prefetch, policy) ->
              List.for_all
                (fun capacity ->
                  let w = wide ~mode ~prefetch ~policy ~capacity in
                  original w = original (narrow ~mode ~prefetch ~policy ~capacity)
                  && idle w)
                [ 0; 1; objects ])
            (List.concat_map
               (fun prefetch -> List.map (fun p -> (prefetch, p)) policies)
               [ false; true ]))
        [
          Heuristics.Event_cache.Local;
          Heuristics.Event_cache.Cooperative;
          Heuristics.Event_cache.Hierarchical { cluster_radius_ms = radius };
        ])

let () =
  Alcotest.run "heuristics"
    [
      ( "lru-cache",
        [
          Alcotest.test_case "basics" `Quick test_lru_basic;
          Alcotest.test_case "duplicate insert" `Quick test_lru_duplicate_insert;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
        ] );
      ( "event-cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick
            test_cache_hit_miss_accounting;
          Alcotest.test_case "eviction" `Quick test_cache_eviction_under_pressure;
          Alcotest.test_case "origin free" `Quick test_origin_node_reads_are_free;
          Alcotest.test_case "near-origin miss covered" `Quick
            test_near_origin_miss_is_covered;
          Alcotest.test_case "cooperative peer fetch" `Quick
            test_cooperative_fetches_from_peer;
          Alcotest.test_case "prefetch" `Quick test_prefetch_covers_first_access;
          Alcotest.test_case "write messages" `Quick test_write_messages;
          Alcotest.test_case "interval limit" `Quick test_interval_limit;
          Alcotest.test_case "trace wider than the system" `Quick
            test_trace_wider_than_system;
          QCheck_alcotest.to_alcotest prop_replay_matches_reference;
          QCheck_alcotest.to_alcotest prop_idle_leaves_change_nothing;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "global covers" `Quick test_greedy_global_covers;
          Alcotest.test_case "global zero capacity" `Quick
            test_greedy_global_zero_capacity;
          Alcotest.test_case "replica covers" `Quick test_greedy_replica_covers;
          Alcotest.test_case "replica placement choice" `Quick
            test_greedy_replica_sticks_to_best_node;
        ] );
      ( "hierarchical",
        [
          Alcotest.test_case "no intra-cluster duplication" `Quick
            test_hierarchical_no_intra_cluster_duplication;
          Alcotest.test_case "cross-cluster caches" `Quick
            test_hierarchical_cross_cluster_caches_locally;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "strategies compared" `Quick
            test_placement_baselines;
          Alcotest.test_case "respect store support" `Quick
            test_placement_baselines_respect_support;
        ] );
      ( "policies",
        [
          Alcotest.test_case "fifo vs lru" `Quick test_policy_fifo_ignores_recency;
          Alcotest.test_case "lfu keeps hot" `Quick test_policy_lfu_keeps_hot;
          Alcotest.test_case "size bound" `Quick
            test_policy_size_never_exceeds_capacity;
          Alcotest.test_case "runner entrypoint" `Quick
            test_policy_runner_entrypoint;
        ] );
      ( "search",
        [
          Alcotest.test_case "int" `Quick test_min_feasible_int;
          Alcotest.test_case "goal-meeting is monotone in the parameter"
            `Quick test_feasibility_monotone;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cache_conserves_events;
          QCheck_alcotest.to_alcotest prop_greedy_global_respects_capacity;
          QCheck_alcotest.to_alcotest prop_costing_components_sum;
        ] );
      ( "runner",
        [
          Alcotest.test_case "lru infeasible at 100%" `Quick
            test_runner_lru_infeasible_at_100;
          Alcotest.test_case "lru feasible at 90%" `Quick
            test_runner_lru_feasible_at_90;
          Alcotest.test_case "prefetch reaches 100%" `Quick
            test_runner_prefetch_feasible_at_100;
          Alcotest.test_case "right class beats caching" `Quick
            test_runner_greedy_cheaper_than_caching;
          Alcotest.test_case "heuristics respect bounds" `Quick
            test_runner_costs_at_least_class_bound;
          Alcotest.test_case "deployments match pinned digests" `Quick
            test_golden_deployments;
          QCheck_alcotest.to_alcotest prop_prepared_matches_fresh;
        ] );
    ]
