(* Online engine: chunk-size invariance, pinned epoch reports, regret sign.

   The engine's contract is that epoching is an observation schedule,
   not a workload transformation — the same trace chunked at any epoch
   size must fold to the same cumulative state, and the final epoch's
   deployments must match the offline ones bit for bit. *)

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
    costs = Mcperf.Spec.default_costs;
    goal = Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.95 };
    placeable = None;
    strategies;
    solver = Bounds.Pipeline.Auto;
    warm = true;
  }

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
   the offline ones — and must not depend on the epoch size. *)
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
        let _, epochs = E.run (config ~epoch_intervals:k ()) ~trace:cs.CS.trace in
        let last = List.nth epochs (List.length epochs - 1) in
        Alcotest.(check int)
          (Printf.sprintf "final intervals k=%d" k)
          intervals last.E.intervals;
        match last.E.decisions with
        | [ d ] ->
          ( (match d.E.parameter with
            | Some p -> p
            | None -> Alcotest.fail "final epoch infeasible"),
            Option.get d.E.cost )
        | _ -> Alcotest.fail "expected one decision")
      [ 4; 6; 12 ]
  in
  List.iteri
    (fun i (p, c) ->
      Alcotest.(check int) (Printf.sprintf "param run %d" i) (fst offline) p;
      Alcotest.(check (float 0.)) (Printf.sprintf "cost run %d" i) (snd offline) c)
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
    E.run (config ~strategies ~epoch_intervals:4 ()) ~trace:cs.CS.trace
  in
  Alcotest.(check string) "epoch reports digest"
    "850580b9010665b37230a27a3f42b23f"
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
    E.run (config ~strategies ~epoch_intervals:4 ()) ~trace:cs.CS.trace
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

(* Warm starts change solve effort, never the reported bound's validity:
   a warm run still reports nonnegative regret and the same deployments
   as a cold run. *)
let test_warm_vs_cold_decisions_agree () =
  let cs = Lazy.force cs in
  let run warm =
    let t, epochs =
      E.run { (config ~epoch_intervals:6 ()) with E.warm } ~trace:cs.CS.trace
    in
    ( List.map
        (fun (e : E.epoch) ->
          List.map
            (fun (d : E.decision) -> (d.E.strategy, d.E.parameter, d.E.cost))
            e.E.decisions)
        epochs,
      E.warm_lifts t )
  in
  let warm_decisions, warm_lifts = run true in
  let cold_decisions, cold_lifts = run false in
  Alcotest.(check bool)
    "same deployments" true
    (warm_decisions = cold_decisions);
  (* A lost warm lift costs only speed, so the decisions above cannot
     catch it; pin the lift count the warm chain is known to reach. *)
  Alcotest.(check int) "warm run lifts" 1 warm_lifts;
  Alcotest.(check int) "cold run never lifts" 0 cold_lifts

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
          Alcotest.test_case "warm vs cold deployments agree" `Quick
            test_warm_vs_cold_decisions_agree;
        ] );
      ( "regret",
        [
          Alcotest.test_case "nonnegative every epoch" `Quick
            test_regret_nonnegative;
        ] );
      ( "stream",
        [
          Alcotest.test_case "misaligned chunk rejected" `Quick
            test_feed_rejects_misaligned_chunk;
        ] );
    ]
