(* Online engine: chunk-size invariance, pinned epoch reports, regret sign.

   The engine's contract is that epoching is an observation schedule,
   not a workload transformation — the same trace chunked at any epoch
   size must fold to the same cumulative state, the final epoch's
   deployments must match the offline ones bit for bit, and every
   epoch's class bound is the offline bound of what it has seen. *)

module CS = Replica_select.Case_study
module E = Online.Engine

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let cs = lazy (CS.make ~nodes:10 ~scale:0.01 ~intervals:12 CS.Web)

let intervals = 12

let interval_s () =
  Workload.Trace.duration_s (Lazy.force cs).CS.trace /. float_of_int intervals

let config ?(strategies = [ ("greedy-global", Heuristics.Greedy_global.strategy) ])
    ~epoch_intervals () =
  let cs = Lazy.force cs in
  {
    E.system = cs.CS.system;
    interval_s = interval_s ();
    epoch_intervals;
    goal = Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.95 };
    strategies;
  }

(* The whole trace, epoch by epoch, as [serve] feeds it: the engine and
   its epoch reports. *)
let run (config : E.config) ~trace =
  let t = E.create config in
  List.iter
    (fun chunk -> ignore (E.feed t chunk))
    (E.chunks ~interval_s:config.E.interval_s
       ~epoch_intervals:config.E.epoch_intervals trace);
  (t, E.epochs t)

(* A deterministic fingerprint of an epoch: everything except the wall
   clocks. *)
let epoch_view (e : E.epoch) =
  ( e.E.index,
    e.E.intervals,
    e.E.chunk_events,
    e.E.total_events,
    e.E.working_set,
    List.map
      (fun (n, (r : Bounds.Pipeline.t)) ->
        (n, r.Bounds.Pipeline.feasible, r.Bounds.Pipeline.lower_bound))
      e.E.bounds,
    e.E.decisions )

(* --- chunking is lossless ------------------------------------------------- *)

(* Folding the trace chunk-by-chunk through Incremental must reproduce
   the whole-trace Demand.of_trace byte for byte, at every epoch size. *)
let test_chunking_reproduces_demand () =
  let cs = Lazy.force cs in
  let s = interval_s () in
  let full = Workload.Demand.of_trace ~intervals cs.CS.trace in
  let dfull = digest full in
  List.iter
    (fun k ->
      let chunks = E.chunks ~interval_s:s ~epoch_intervals:k cs.CS.trace in
      let nodes = Workload.Trace.node_count cs.CS.trace in
      let incr =
        List.fold_left Workload.Incremental.extend
          (Workload.Incremental.create ~nodes ~interval_s:s)
          chunks
      in
      Alcotest.(check int)
        (Printf.sprintf "events k=%d" k)
        (Workload.Trace.length cs.CS.trace)
        (Workload.Incremental.events incr);
      Alcotest.(check string)
        (Printf.sprintf "demand k=%d" k)
        dfull
        (digest (Workload.Incremental.demand incr));
      (* The cumulative trace rebuilt from the chunks is the original. *)
      let rebuilt =
        match chunks with
        | first :: rest -> List.fold_left Workload.Trace.extend first rest
        | [] -> assert false
      in
      Alcotest.(check string)
        (Printf.sprintf "trace k=%d" k)
        (digest cs.CS.trace) (digest rebuilt))
    [ 1; 2; 3; 4; 5; 6; 12 ]

(* The final epoch sees the whole trace, so its deployments must equal
   the offline ones — and neither they nor its class bounds may depend on
   the epoch size. *)
let test_epoch_size_invariant_final_decisions () =
  let cs = Lazy.force cs in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  let offline =
    match
      Sim.Runner.deploy_offline ~factory:Heuristics.Greedy_global.strategy
        ~spec ()
    with
    | Some d -> (d.Sim.Runner.parameter, d.Sim.Runner.cost)
    | None -> Alcotest.fail "offline greedy-global infeasible"
  in
  let finals =
    List.map
      (fun k ->
        let _, epochs = run (config ~epoch_intervals:k ()) ~trace:cs.CS.trace in
        let last = List.nth epochs (List.length epochs - 1) in
        Alcotest.(check int)
          (Printf.sprintf "final intervals k=%d" k)
          intervals last.E.intervals;
        let bounds =
          List.map
            (fun (n, (r : Bounds.Pipeline.t)) ->
              (n, r.Bounds.Pipeline.lower_bound))
            last.E.bounds
        in
        match last.E.decisions with
        | [ d ] ->
          ( (match d.E.parameter with
            | Some p -> p
            | None -> Alcotest.fail "final epoch infeasible"),
            Option.get d.E.cost,
            bounds )
        | _ -> Alcotest.fail "expected one decision")
      [ 4; 6; 12 ]
  in
  let _, _, first_bounds = List.hd finals in
  List.iteri
    (fun i (p, c, bounds) ->
      Alcotest.(check int) (Printf.sprintf "param run %d" i) (fst offline) p;
      Alcotest.(check (float 0.)) (Printf.sprintf "cost run %d" i) (snd offline) c;
      Alcotest.(check (list (pair string (float 0.))))
        (Printf.sprintf "final bounds run %d" i)
        first_bounds bounds)
    finals

(* --- pinned epoch reports ------------------------------------------------- *)

(* Every deterministic field of every epoch (decisions, bounds, event
   counts) for three strategies at epoch size 4, pinned by digest: any
   change to a search, a strategy or a bound re-solve moves it. *)
let test_epoch_reports_pinned () =
  let cs = Lazy.force cs in
  let strategies =
    [
      ("greedy-global", Heuristics.Greedy_global.strategy);
      ("greedy-replica", Heuristics.Greedy_replica.strategy);
      ("lru-caching", Heuristics.Cache_strategy.lru);
    ]
  in
  let _, epochs =
    run (config ~strategies ~epoch_intervals:4 ()) ~trace:cs.CS.trace
  in
  Alcotest.(check string) "epoch reports digest"
    "0dd62781628edeafff02b52d77192389"
    (digest (List.map epoch_view epochs))

(* --- regret --------------------------------------------------------------- *)

let test_regret_nonnegative () =
  let cs = Lazy.force cs in
  let strategies =
    [
      ("greedy-global", Heuristics.Greedy_global.strategy);
      ("greedy-replica", Heuristics.Greedy_replica.strategy);
      ("proportional", Heuristics.Proportional.strategy);
    ]
  in
  let t, epochs =
    run (config ~strategies ~epoch_intervals:4 ()) ~trace:cs.CS.trace
  in
  let seen = ref 0 in
  List.iter
    (fun (e : E.epoch) ->
      List.iter
        (fun (d : E.decision) ->
          match d.E.regret with
          | Some r ->
            incr seen;
            Alcotest.(check bool)
              (Printf.sprintf "regret >= 0 (%s, epoch %d, regret %.9f)"
                 d.E.strategy e.E.index r)
              true (r >= -1e-9)
          | None -> ())
        e.E.decisions)
    epochs;
  Alcotest.(check bool) "some regrets reported" true (!seen > 0);
  Alcotest.(check bool) "bounds were solved" true (E.bound_solves t > 0)

(* The online decision is the offline decision: over a random case-study
   seed, epoch size and QoS fraction, every epoch's class bounds equal
   [Pipeline.compute] and every epoch's decisions equal
   [Runner.deploy_offline] (parameter, cost and worst QoS) on that
   epoch's cumulative spec and trace, rebuilt here by folding the chunks
   through [Incremental] and [Trace.extend] independently of the engine;
   and every regret is nonnegative. *)
let prop_online_bound_is_offline_bound =
  let horizon = 6 in
  QCheck2.Test.make ~count:3
    ~name:"every epoch's bound is the offline bound of its spec"
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 1 horizon)
        (oneofl [ 0.9; 0.95; 0.99 ]))
    (fun (seed, k, fraction) ->
      let cs = CS.make ~seed ~nodes:10 ~scale:0.01 ~intervals:horizon CS.Web in
      let system = cs.CS.system in
      let interval_s =
        Workload.Trace.duration_s cs.CS.trace /. float_of_int horizon
      in
      let goal = Mcperf.Spec.Qos { tlat_ms = 150.; fraction } in
      let strategies =
        [
          ("greedy-global", Heuristics.Greedy_global.strategy);
          ("greedy-replica", Heuristics.Greedy_replica.strategy);
          ("lru-caching", Heuristics.Cache_strategy.lru);
        ]
      in
      let _, epochs =
        run
          { E.system; interval_s; epoch_intervals = k; goal; strategies }
          ~trace:cs.CS.trace
      in
      let classes =
        List.map
          (fun (_, factory) ->
            let cls =
              (factory (Heuristics.Strategy.Context.make ~system ~goal ()))
                .Heuristics.Strategy.heuristic_class
            in
            (cls.Mcperf.Classes.name, cls))
          strategies
      in
      (* (cumulative demand, cumulative trace) after each chunk *)
      let cumulative =
        List.rev
          (snd
             (List.fold_left
                (fun ((incr, trace), acc) chunk ->
                  let incr = Workload.Incremental.extend incr chunk in
                  let trace =
                    match trace with
                    | None -> chunk
                    | Some t -> Workload.Trace.extend t chunk
                  in
                  ( (incr, Some trace),
                    (Workload.Incremental.demand incr, trace) :: acc ))
                ( ( Workload.Incremental.create
                      ~nodes:(Topology.System.node_count system)
                      ~interval_s,
                    None ),
                  [] )
                (E.chunks ~interval_s ~epoch_intervals:k cs.CS.trace)))
      in
      let offline_matches ~trace spec (label, factory) (d : E.decision) =
        let o = Sim.Runner.deploy_offline ~trace ~factory ~spec () in
        let field f = Option.map f o in
        d.E.strategy = label
        && d.E.parameter = field (fun o -> o.Sim.Runner.parameter)
        && d.E.cost = field (fun o -> o.Sim.Runner.cost)
        && d.E.worst_qos = field (fun o -> o.Sim.Runner.worst_qos)
      in
      List.length cumulative = List.length epochs
      && List.for_all2
           (fun (e : E.epoch) (demand, trace) ->
             if Workload.Demand.total_reads demand <= 0. then
               e.E.bounds = [] && e.E.decisions = []
             else
               let spec = Mcperf.Spec.make ~system ~demand ~goal () in
               List.map fst e.E.bounds = List.map fst classes
               && List.for_all
                    (fun (name, r) ->
                      r = Bounds.Pipeline.compute spec (List.assoc name classes))
                    e.E.bounds
               && List.length e.E.decisions = List.length strategies
               && List.for_all2
                    (offline_matches ~trace spec)
                    strategies e.E.decisions
               && List.for_all
                    (fun (d : E.decision) ->
                      match d.E.regret with
                      | Some r -> r >= -1e-9
                      | None -> true)
                    e.E.decisions)
           epochs cumulative)

(* --- engine stream edge cases --------------------------------------------- *)

let test_feed_rejects_misaligned_chunk () =
  let cs = Lazy.force cs in
  let t = E.create (config ~epoch_intervals:4 ()) in
  let chunks = E.chunks ~interval_s:(interval_s ()) ~epoch_intervals:4 cs.CS.trace in
  ignore (E.feed t (List.hd chunks));
  (* Re-feeding the same chunk is not a continuation: same horizon. *)
  Alcotest.(check bool) "misaligned chunk rejected" true
    (match E.feed t (List.hd chunks) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "online"
    [
      ( "chunking",
        [
          Alcotest.test_case "demand reproduced at every epoch size" `Quick
            test_chunking_reproduces_demand;
          Alcotest.test_case "final decisions epoch-size invariant" `Quick
            test_epoch_size_invariant_final_decisions;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "epoch reports match pinned digest" `Quick
            test_epoch_reports_pinned;
        ] );
      ( "regret",
        [
          Alcotest.test_case "nonnegative every epoch" `Quick
            test_regret_nonnegative;
          QCheck_alcotest.to_alcotest prop_online_bound_is_offline_bound;
        ] );
      ( "stream",
        [
          Alcotest.test_case "misaligned chunk rejected" `Quick
            test_feed_rejects_misaligned_chunk;
        ] );
    ]
