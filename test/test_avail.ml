(* Availability layer: the laws the failure machinery rests on.

   - the scenario sampler and outage timeline are pure functions of
     (spec, system, groups) — regeneration is byte-identical, and the
     committed golden fixture pins the timeline's text rendering;
   - degraded re-pricing reproduces the nominal total under an all-up
     mask and is monotone in the failure set (failing more nodes can
     never make a placement cheaper — the miss penalty is priced at
     least as high as the worst late service);
   - a replay reports one step per timeline step;
   - the scenario LP is a valid lower bound on the measured expected
     degraded cost of a goal-meeting placement;
   - Util.Faults surfaces structured Parse_error values with the legacy
     string wrappers layered on top. *)

module CS = Replica_select.Case_study

(* One small fixture shared by every test: deterministic in CS.make's
   default seed, cheap enough for property iteration. *)
let cs = CS.make ~nodes:6 ~intervals:6 ~scale:0.005 CS.Web
let sys = cs.CS.system
let groups = Avail.Groups.derive sys
let spec = CS.qos_spec cs ~fraction:0.9 ~for_bounds:true ()
let perm = Mcperf.Permission.compute spec Mcperf.Classes.general
let nodes = Topology.System.node_count sys

let scenarios =
  Avail.Scenario.sample_all Avail.Scenario.default sys ~groups

let placement =
  match
    Sim.Runner.deploy_offline ~factory:Heuristics.Greedy_global.strategy ~spec ()
  with
  | Some d -> d.Sim.Runner.placement
  | None -> Alcotest.fail "fixture: greedy-global found no feasible placement"

let base = lazy (Mcperf.Costing.evaluate perm placement)

(* --- sampler determinism -------------------------------------------------- *)

let test_sampler_deterministic () =
  let sig_of ss =
    Array.to_list (Array.map Avail.Scenario.signature ss)
  in
  let a = Avail.Scenario.sample_all Avail.Scenario.default sys ~groups in
  let b = Avail.Scenario.sample_all Avail.Scenario.default sys ~groups in
  Alcotest.(check (list string))
    "two draws of the same spec agree" (sig_of a) (sig_of b);
  let other =
    Avail.Scenario.sample_all
      { Avail.Scenario.default with Avail.Scenario.seed = 8 }
      sys ~groups
  in
  Alcotest.(check bool)
    "a different seed draws a different scenario set" true
    (sig_of a <> sig_of other)

let test_sampler_respects_origin_flag () =
  let spec_noorigin =
    {
      Avail.Scenario.default with
      Avail.Scenario.node_prob = 0.5;
      origin_fails = false;
      count = 64;
    }
  in
  let ss = Avail.Scenario.sample_all spec_noorigin sys ~groups in
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        "origin never fails when origin_fails is false" false
        (Avail.Scenario.is_down s sys.Topology.System.origin))
    ss

(* --- golden timeline fixture ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_timeline_spec =
  { Avail.Scenario.default with Avail.Scenario.steps = 16 }

let test_timeline_golden () =
  let tl = Avail.Scenario.timeline golden_timeline_spec sys ~groups in
  let rendered = Avail.Scenario.render_timeline tl in
  let golden = read_file "fixtures/avail_timeline.golden" in
  Alcotest.(check string)
    "seeded timeline matches the committed fixture" golden rendered;
  let tl2 = Avail.Scenario.timeline golden_timeline_spec sys ~groups in
  Alcotest.(check string)
    "regeneration is byte-identical" rendered
    (Avail.Scenario.render_timeline tl2)

(* --- degraded re-pricing laws --------------------------------------------- *)

let test_all_up_equals_nominal () =
  let d =
    Avail.Survive.degrade ~base:(Lazy.force base) perm placement
      ~down:(Array.make nodes false)
  in
  let total = (Lazy.force base).Mcperf.Costing.total in
  Alcotest.(check (float (1e-9 *. (1. +. Float.abs total))))
    "all-up degraded cost is the nominal total" total
    d.Avail.Survive.degraded_cost;
  Alcotest.(check (float 1e-12)) "no unavailability when all up" 0.
    d.Avail.Survive.unavail_fraction

(* Growing the failure set can only raise the degraded cost: every read
   that was served keeps its price or moves to a pricier fallback, and an
   unavailable read pays at least the worst late service. The generator
   draws a random down-set as a node bitmask plus one extra node to add. *)
let prop_degraded_cost_monotone =
  QCheck2.Test.make ~count:200
    ~name:"degraded cost is monotone in the failure set"
    QCheck2.Gen.(pair (int_range 0 ((1 lsl nodes) - 1)) (int_range 0 (nodes - 1)))
    (fun (mask, extra) ->
      let down = Array.init nodes (fun n -> mask land (1 lsl n) <> 0) in
      let d_small =
        Avail.Survive.degrade ~base:(Lazy.force base) perm placement ~down
      in
      let bigger = Array.copy down in
      bigger.(extra) <- true;
      let d_big =
        Avail.Survive.degrade ~base:(Lazy.force base) perm placement
          ~down:bigger
      in
      let tol = 1e-9 *. (1. +. Float.abs d_small.Avail.Survive.degraded_cost) in
      d_big.Avail.Survive.degraded_cost
      >= d_small.Avail.Survive.degraded_cost -. tol)

let test_replay_one_step_per_timeline_step () =
  let tl = Avail.Scenario.timeline golden_timeline_spec sys ~groups in
  let r = Sim.Runner.degradation_replay ~perm ~placement ~timeline:tl () in
  Alcotest.(check int) "one step per timeline step"
    tl.Avail.Scenario.steps
    (Array.length r.Sim.Runner.steps)

(* --- scenario LP validity ------------------------------------------------- *)

let test_scenario_lp_bounds_expected_cost () =
  Alcotest.(check bool) "fixture placement meets the goal" true
    (Lazy.force base).Mcperf.Costing.meets_goal;
  let cell =
    Bounds.Avail_bound.expected_cost_bound spec Mcperf.Classes.general
      ~scenarios
  in
  Alcotest.(check bool) "scenario LP cell is feasible" true
    cell.Bounds.Avail_bound.feasible;
  let a = Avail.Survive.assess perm placement ~scenarios in
  let lb = cell.Bounds.Avail_bound.expected_bound in
  Alcotest.(check bool)
    (Printf.sprintf "LP bound %.4f <= measured expected cost %.4f" lb
       a.Avail.Survive.expected_cost)
    true
    (lb <= a.Avail.Survive.expected_cost
           +. (1e-6 *. (1. +. Float.abs a.Avail.Survive.expected_cost)))

(* Scenario-LP cells pinned against an earlier build, one "label md5" line
   each in fixtures/avail_bound_cells.golden. The MD5 is taken over every
   reported field marshaled without sharing, so a last-bit drift in a
   bound shows — the printed fixtures round to %.4f and %.1f. Under
   [Auto] every pinned model is past the simplex limit and routes to
   PDHG: the small fixture above and the validate --family avail instance
   (seed 2004, six scenarios), for three classes each. One more cell
   forces the fixture's general class through the simplex. *)
let pinned_cells () =
  let validate_cs = CS.make ~seed:2004 ~nodes:8 ~scale:0.01 ~intervals:8 CS.Web in
  let validate_scenarios =
    let sys = validate_cs.CS.system in
    Avail.Scenario.sample_all
      { Avail.Scenario.default with Avail.Scenario.seed = 2004; count = 6 }
      sys ~groups:(Avail.Groups.derive sys)
  in
  List.concat_map
    (fun (name, cs, scenarios) ->
      let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
      List.map
        (fun (cls : Mcperf.Classes.t) ->
          ( Printf.sprintf "%s/%s@0.95" name cls.Mcperf.Classes.name,
            Bounds.Avail_bound.expected_cost_bound spec cls ~scenarios ))
        Mcperf.Classes.
          [ general; storage_constrained; replica_constrained_uniform ])
    [
      ("test-fixture", cs, scenarios);
      ("validate-avail-seed2004", validate_cs, validate_scenarios);
    ]
  @ [
      ( "test-fixture/general@0.95/simplex",
        Bounds.Avail_bound.expected_cost_bound
          ~solver:Bounds.Pipeline.Exact_simplex
          (CS.qos_spec cs ~fraction:0.95 ~for_bounds:true ())
          Mcperf.Classes.general ~scenarios );
    ]

let cell_digest (c : Bounds.Avail_bound.cell) =
  let open Bounds.Avail_bound in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( c.class_name,
            c.fraction,
            c.feasible,
            c.expected_bound,
            c.nominal_vars,
            c.vars,
            c.rows,
            c.exact,
            c.iterations )
          [ Marshal.No_sharing ]))

let test_scenario_lp_pinned () =
  let expected =
    read_file "fixtures/avail_bound_cells.golden"
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | [ label; md5 ] -> (label, md5)
           | _ -> Alcotest.failf "malformed golden line %S" line)
  in
  let cells = pinned_cells () in
  Alcotest.(check (list (pair string string)))
    "every cell matches its pinned digest" expected
    (List.map (fun (label, c) -> (label, cell_digest c)) cells);
  Alcotest.(check (list bool))
    "both routes pinned" [ false; true ]
    (List.sort_uniq compare
       (List.map (fun (_, c) -> c.Bounds.Avail_bound.exact) cells))

let test_k_failure_flags_consistent () =
  let checks = Bounds.Avail_bound.k_failure_check perm placement ~groups in
  Alcotest.(check int) "one check per group" (Array.length groups)
    (Array.length checks);
  Array.iter
    (fun (c : Bounds.Avail_bound.group_check) ->
      Alcotest.(check bool)
        (c.Bounds.Avail_bound.group ^ ": survives flag matches its violation")
        (c.Bounds.Avail_bound.violation <= 0.1 +. 1e-12)
        c.Bounds.Avail_bound.survives;
      Alcotest.(check bool)
        (c.Bounds.Avail_bound.group ^ ": failed set within the group and k")
        true
        (Array.length c.Bounds.Avail_bound.failed <= 2
        && Array.for_all
             (fun m -> Array.mem m (Array.find_opt (fun (g : Avail.Groups.t) -> g.Avail.Groups.name = c.Bounds.Avail_bound.group) groups |> Option.get).Avail.Groups.members)
             c.Bounds.Avail_bound.failed))
    checks

(* --- Util.Faults structured parse errors ---------------------------------- *)

let test_faults_parse_result_ok () =
  match Util.Faults.parse_result "seed=42,crash=0.25,diverge=0.1" with
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e)
  | Ok s ->
    Alcotest.(check int) "seed" 42 s.Util.Faults.seed;
    Alcotest.(check (float 0.)) "crash" 0.25 s.Util.Faults.crash_prob;
    Alcotest.(check (float 0.)) "diverge" 0.1 s.Util.Faults.diverge_prob

let test_faults_parse_result_error_fields () =
  (match Util.Faults.parse_result "crash=1.5" with
  | Ok _ -> Alcotest.fail "out-of-range probability accepted"
  | Error e ->
    Alcotest.(check string) "default file label" "<faults>" e.Util.Faults.file;
    Alcotest.(check int) "single-line specs report line 0" 0
      e.Util.Faults.line;
    Alcotest.(check bool) "message names the offending key" true
      (String.length e.Util.Faults.msg > 0));
  match Util.Faults.parse_result ~file:"cli" "bogus" with
  | Ok _ -> Alcotest.fail "malformed spec accepted"
  | Error e ->
    Alcotest.(check string) "caller's file label is preserved" "cli"
      e.Util.Faults.file

let () =
  Alcotest.run "avail"
    [
      ( "scenario",
        [
          Alcotest.test_case "sampler deterministic" `Quick
            test_sampler_deterministic;
          Alcotest.test_case "origin_fails=false pins the origin" `Quick
            test_sampler_respects_origin_flag;
          Alcotest.test_case "timeline golden fixture" `Quick
            test_timeline_golden;
        ] );
      ( "survive",
        [
          Alcotest.test_case "all-up equals nominal" `Quick
            test_all_up_equals_nominal;
          QCheck_alcotest.to_alcotest prop_degraded_cost_monotone;
          Alcotest.test_case "replay has one step per timeline step" `Quick
            test_replay_one_step_per_timeline_step;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "scenario LP bounds expected cost" `Quick
            test_scenario_lp_bounds_expected_cost;
          Alcotest.test_case "scenario LP cells match pinned digests" `Quick
            test_scenario_lp_pinned;
          Alcotest.test_case "k-failure flags consistent" `Quick
            test_k_failure_flags_consistent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "parse_result ok" `Quick
            test_faults_parse_result_ok;
          Alcotest.test_case "parse_result error fields" `Quick
            test_faults_parse_result_error_fields;
        ] );
    ]
