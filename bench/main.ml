(* Ratio benchmarks: five legs, one for each measured ratio that no other
   harness carries.

     pdhg      fused vs reference PDHG iteration throughput
     tree      exact tree DP vs the same cells forced through an LP
     bundling  bundled vs unbundled Lagrangian bound on the CDN family
     avail     scenario-LP cell vs nominal cell, plus the replay rate
     faults    clean vs fault-injected class sweep at jobs = 4

   Usage: [main.exe LEG]. Every side of a leg runs [reps] times, the
   sides interleaved round by round, and every check is a hard failure.
   One writer reports every leg: BENCH_<leg>.json in the working
   directory, plus one row per side and per ratio appended to
   BENCH_LOG.tsv. End-to-end op times (a bound cell, a deployment, an
   online epoch, a Lagrangian bound) are perfbench's, not this file's. *)

module CS = Replica_select.Case_study
module TS = Replica_select.Tree_scenario
module SS = Replica_select.Scale_scenario

(* Five runs per side put the quartiles on the second and fourth sorted
   samples. *)
let reps = 5

(* --- measurement ----------------------------------------------------- *)

(* Run each side once per round, in the given order, for [reps] rounds,
   so slow drift of the machine hits every side alike. A side returns its
   own sample for the round. *)
let interleave sides =
  let samples = List.map (fun _ -> Array.make reps 0.) sides in
  for r = 0 to reps - 1 do
    List.iter2 (fun (_, _, side) xs -> xs.(r) <- side ()) sides samples
  done;
  List.map2 (fun (name, unit, _) xs -> (name, unit, xs)) sides samples

(* A side whose sample is its wall-clock seconds. *)
let timed f () =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* A side body that keeps its latest result in [r]. *)
let keep r f () = r := Some (f ())

(* A hard check: the leg fails unless [ok]; otherwise the claim goes into
   the leg's report. *)
let check leg ok fmt =
  Printf.ksprintf
    (fun claim ->
      if not ok then
        failwith (Printf.sprintf "bench %s: check failed: %s" leg claim);
      claim)
    fmt

(* --- the one writer -------------------------------------------------- *)

let commit () =
  let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
  let c = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  if c = "" then "unknown" else c

let log_file = "BENCH_LOG.tsv"
let log_header =
  "timestamp\tcommit\tleg\tmetric\tunit\tbest\tmedian\tq1\tq3"

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* Appends under the fixed header only: a log that starts with any other
   line was written by another schema, and rows appended to it would not
   line up. *)
let open_log () =
  if Sys.file_exists log_file then begin
    let ic = open_in log_file in
    let first = try input_line ic with End_of_file -> "" in
    close_in ic;
    if first <> log_header then
      failwith
        (Printf.sprintf "bench: %s starts with another header; move it aside"
           log_file)
  end;
  let fresh = not (Sys.file_exists log_file) in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 log_file in
  if fresh then output_string oc (log_header ^ "\n");
  oc

(* [sides] are (name, unit, samples); [ratios] name a numerator and a
   denominator side, reported as the ratio of their best samples, as
   perfbench estimates: noise only ever slows a run down, so the best
   sample (the least time, or the highest rate for a per-second unit)
   moves least between runs. The median and quartiles stay in the report
   as the spread. [checks] are the claims that held. *)
let report ~leg ~sides ~ratios ~checks =
  let commit = commit () and cores = Util.Parallel.available_cores () in
  let stats =
    List.map
      (fun (name, unit, xs) ->
        let q p = Util.Stats.percentile xs p in
        let better = if String.ends_with ~suffix:"/s" unit then max else min in
        (name, unit, Array.fold_left better xs.(0) xs, q 50., q 25., q 75.))
      sides
  in
  let best side =
    let _, _, b, _, _, _ =
      List.find (fun (n, _, _, _, _, _) -> n = side) stats
    in
    b
  in
  let ratios = List.map (fun (a, b) -> (a ^ "/" ^ b, best a /. best b)) ratios in
  let items f xs = String.concat ",\n" (List.map f xs) in
  let oc = open_out (Printf.sprintf "BENCH_%s.json" leg) in
  Printf.fprintf oc
    "{\n\
    \  \"leg\": \"%s\",\n\
    \  \"commit\": \"%s\",\n\
    \  \"cores\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"sides\": [\n%s\n  ],\n\
    \  \"ratios\": [\n%s\n  ],\n\
    \  \"checks\": [\n%s\n  ]\n\
     }\n"
    leg commit cores reps
    (items
       (fun (n, u, b, m, q1, q3) ->
         Printf.sprintf
           "    { \"name\": \"%s\", \"unit\": \"%s\", \"best\": %.6g, \
            \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g }"
           n u b m q1 q3)
       stats)
    (items
       (fun (n, r) ->
         Printf.sprintf "    { \"name\": \"%s\", \"best_ratio\": %.4g }" n r)
       ratios)
    (items (Printf.sprintf "    \"%s\"") checks);
  close_out oc;
  let log = open_log () and ts = timestamp () in
  let row metric unit cells =
    Printf.fprintf log "%s\t%s\t%s\t%s\t%s\t%s\n" ts commit leg metric unit
      (String.concat "\t" cells)
  in
  List.iter
    (fun (n, u, b, m, q1, q3) ->
      row n u (List.map (Printf.sprintf "%.6g") [ b; m; q1; q3 ]);
      Printf.printf "%s %-32s %11.5g %-7s median %.5g  q1 %.5g  q3 %.5g\n" leg
        n b u m q1 q3)
    stats;
  List.iter
    (fun (n, r) ->
      row n "x" [ Printf.sprintf "%.4g" r; "-"; "-"; "-" ];
      Printf.printf "%s %-32s %10.3fx\n" leg n r)
    ratios;
  close_out log;
  List.iter (Printf.printf "%s ok: %s\n" leg) checks;
  Printf.printf "wrote BENCH_%s.json, appended to %s\n%!" leg log_file

(* --- legs ------------------------------------------------------------ *)

(* The case-study instance the LP legs share. *)
let web = lazy (CS.make ~nodes:10 ~scale:0.02 ~intervals:12 CS.Web)

(* Fused vs reference PDHG on the storage-constrained model, the sweeps'
   dominant cost. Both run the same recurrence with the same per-element
   arithmetic, so the bounds must be equal; rel_tol 0 disables early
   convergence, so both must run exactly [iters] iterations. *)
let pdhg () =
  let leg = "pdhg" in
  let spec = CS.qos_spec (Lazy.force web) ~fraction:0.99 ~for_bounds:true () in
  let problem =
    (Mcperf.Model.build
       (Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained))
      .Mcperf.Model.problem
  in
  let iters = 4_000 in
  let options = { Lp.Pdhg.default_options with max_iters = iters; rel_tol = 0. } in
  let fused = ref None and reference = ref None in
  let rate r solve () = float_of_int iters /. timed (keep r solve) () in
  let sides =
    interleave
      [
        ("fused", "iter/s", rate fused (fun () -> Lp.Pdhg.solve ~options problem));
        ( "reference",
          "iter/s",
          rate reference (fun () -> Lp.Pdhg.solve_reference ~options problem) );
      ]
  in
  let f = Option.get !fused and r = Option.get !reference in
  let delta = Float.abs (f.Lp.Pdhg.best_bound -. r.Lp.Pdhg.best_bound) in
  report ~leg ~sides ~ratios:[ ("fused", "reference") ]
    ~checks:
      [
        check leg
          (delta = 0.
          && f.Lp.Pdhg.iterations = iters
          && r.Lp.Pdhg.iterations = iters)
          "fused and reference bounds equal after %d iterations each (delta \
           %.3e)"
          iters delta;
      ]

(* The exact tree DP vs the same general-class cell forced through an LP
   producer, on two tree instances. [Auto] must route the cell through the
   DP, and no LP bound may sit above the DP optimum. *)
let tree () =
  let leg = "tree" in
  let cases =
    List.map
      (fun (scen, lp, solver) -> (scen, lp, solver, ref None, ref None))
      [
        (TS.make ~seed:7 (TS.Random { nodes = 40 }), "simplex", Bounds.Pipeline.Exact_simplex);
        ( TS.make ~seed:9 (TS.Balanced { fanout = 3; depth = 4 }),
          "pdhg",
          Bounds.Pipeline.First_order
            { Lp.Pdhg.default_options with max_iters = 20_000; rel_tol = 1e-6 } );
      ]
  in
  let compute ?solver (scen : TS.t) () =
    Bounds.Pipeline.compute ?solver ?placeable:scen.TS.placeable scen.TS.spec
      Mcperf.Classes.general
  in
  let side (scen : TS.t) name = scen.TS.name ^ ":" ^ name in
  let sides =
    interleave
      (List.concat_map
         (fun (scen, lp, solver, dp_cell, lp_cell) ->
           [
             (side scen "dp", "s", timed (keep dp_cell (compute scen)));
             (side scen lp, "s", timed (keep lp_cell (compute ~solver scen)));
           ])
         cases)
  in
  let checks =
    List.concat_map
      (fun (scen, lp, _, dp_cell, lp_cell) ->
        let dp = Option.get !dp_cell and lpc = Option.get !lp_cell in
        let b = dp.Bounds.Pipeline.lower_bound in
        let l = lpc.Bounds.Pipeline.lower_bound in
        [
          check leg
            (dp.Bounds.Pipeline.solve_path = Bounds.Pipeline.Path_tree_dp)
            "%s: Auto routes the cell through the tree DP" scen.TS.name;
          check leg
            (l <= b +. (1e-6 *. (1. +. Float.abs b)))
            "%s: %s bound %.4f <= DP optimum %.4f" scen.TS.name lp l b;
        ])
      cases
  in
  report ~leg ~sides
    ~ratios:(List.map (fun (scen, lp, _, _, _) -> (side scen lp, side scen "dp")) cases)
    ~checks

(* Bundled vs unbundled Lagrangian bound on the CDN scale family at a
   fixed 40 iterations. The family is homogeneous, so the two bounds must
   be equal exactly: any drift is a bundling bug, not float noise. *)
let bundling () =
  let leg = "bundling" in
  let scen = SS.make () in
  let spec = SS.qos_spec scen ~fraction:0.99 in
  let bound bundling () =
    Bounds.Lagrangian.bound ~iterations:40 ~bundling spec Mcperf.Classes.general
  in
  let bundled = ref None and unbundled = ref None in
  let sides =
    interleave
      [
        ("bundled", "s", timed (keep bundled (bound true)));
        ("unbundled", "s", timed (keep unbundled (bound false)));
      ]
  in
  let b = Option.get !bundled and u = Option.get !unbundled in
  let delta = b.Bounds.Lagrangian.bound -. u.Bounds.Lagrangian.bound in
  report ~leg ~sides ~ratios:[ ("unbundled", "bundled") ]
    ~checks:
      [
        check leg (delta = 0.)
          "%s: bundled and unbundled bounds equal exactly (delta %g; %d \
           objects in %d bundles)"
          scen.SS.name delta b.Bounds.Lagrangian.objects
          b.Bounds.Lagrangian.bundles;
      ]

(* The scenario LP's price over a nominal cell, both cold for the general
   class at QoS 0.95 as figavail runs them, and the degraded-replay rate
   of the greedy-global placement. The draw is harsher than the default
   spec: with the case study's gamma = 0 only origin-down scenarios add
   coverage terms to the scenario LP, and 64 scenarios at a 10% node rate
   reliably include several. The scenario bound must sit at or below the
   placement's measured expected degraded cost. *)
let avail () =
  let leg = "avail" in
  let cs = Lazy.force web in
  let sim_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  let bound_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sys = sim_spec.Mcperf.Spec.system in
  let groups = Avail.Groups.derive sys in
  let sspec = { Avail.Scenario.default with count = 64; node_prob = 0.1 } in
  let scenarios = Avail.Scenario.sample_all sspec sys ~groups in
  let timeline = Avail.Scenario.timeline sspec sys ~groups in
  let placement =
    match
      Sim.Runner.deploy_offline ~factory:Heuristics.Greedy_global.strategy
        ~spec:sim_spec ()
    with
    | Some d -> d.Sim.Runner.placement
    | None -> failwith "bench avail: greedy-global deployed no placement"
  in
  let perm = Mcperf.Permission.compute sim_spec Mcperf.Classes.general in
  let cell = ref None in
  let steps = float_of_int timeline.Avail.Scenario.steps in
  let sides =
    interleave
      [
        ( "scenario-lp",
          "s",
          timed
            (keep cell (fun () ->
                 Bounds.Avail_bound.expected_cost_bound bound_spec
                   Mcperf.Classes.general ~scenarios)) );
        ( "nominal",
          "s",
          timed (fun () ->
              ignore (Bounds.Pipeline.compute bound_spec Mcperf.Classes.general))
        );
        ( "replay",
          "steps/s",
          fun () ->
            steps
            /. timed
                 (fun () ->
                   ignore
                     (Sim.Runner.degradation_replay ~perm ~placement ~timeline ()))
                 () );
      ]
  in
  let lb = (Option.get !cell).Bounds.Avail_bound.expected_bound in
  let expected =
    (Avail.Survive.assess perm placement ~scenarios).Avail.Survive.expected_cost
  in
  report ~leg ~sides ~ratios:[ ("scenario-lp", "nominal") ]
    ~checks:
      [
        check leg
          (lb <= expected +. (1e-6 *. (1. +. Float.abs expected)))
          "scenario-LP bound %.4f <= greedy-global's measured expected cost \
           %.4f over %d scenarios"
          lb expected (Array.length scenarios);
      ]

(* The price of fault recovery: one class sweep at jobs = 4, clean and
   with a worker crash on every third cell's first attempt and ~10% of
   first PDHG attempts poisoned. Recovery may change how a cell was
   solved, never what it found: in every round the faulted bounds must
   equal the clean ones, and the faulted sweep must have recovered from
   worker deaths. *)
let fault_spec = "seed=7,crash_every=3,diverge=0.1"

let faults () =
  let leg = "faults" in
  let spec = CS.qos_spec (Lazy.force web) ~fraction:0.95 ~for_bounds:true () in
  let injected =
    match Util.Faults.parse_result fault_spec with
    | Ok s -> s
    | Error e -> failwith (Util.Parse_error.to_string e)
  in
  let sweep faults =
    Util.Faults.install faults;
    Fun.protect
      ~finally:(fun () -> Util.Faults.install Util.Faults.none)
      (fun () ->
        Bounds.Pipeline.sweep_classes
          { Bounds.Pipeline.Sweep_config.default with jobs = 4 }
          spec
          ~fractions:[ 0.95; 0.99; 0.999; 0.9999; 0.99999 ]
          Mcperf.Classes.
            [
              ("general", general);
              ("storage-constrained", storage_constrained);
              ("replica-constrained", replica_constrained_uniform);
              ("decentral-local-routing", decentralized_local_routing);
            ])
  in
  let signature (s : Bounds.Pipeline.sweep) =
    List.map
      (fun (label, cells) ->
        ( label,
          List.map
            (fun (q, (r : Bounds.Pipeline.t)) ->
              ( q,
                r.Bounds.Pipeline.feasible,
                r.Bounds.Pipeline.lower_bound,
                r.Bounds.Pipeline.lp_iterations ))
            cells ))
      s.Bounds.Pipeline.per_class
  in
  let identical =
    Printf.sprintf "'%s' leaves every bound of each of %d rounds unchanged"
      fault_spec reps
  in
  let clean = ref [] and deaths = ref max_int in
  let sides =
    interleave
      [
        ("clean", "s", timed (fun () -> clean := signature (sweep Util.Faults.none)));
        ( "faulted",
          "s",
          timed (fun () ->
              let s = sweep injected in
              ignore (check leg (signature s = !clean) "%s" identical);
              deaths :=
                min !deaths s.Bounds.Pipeline.pool.Util.Parallel.worker_deaths)
        );
      ]
  in
  report ~leg ~sides ~ratios:[ ("faulted", "clean") ]
    ~checks:
      [
        identical;
        check leg (!deaths > 0)
          "every faulted round recovered from worker deaths (at least %d)"
          !deaths;
      ]

let legs =
  [
    ("pdhg", pdhg);
    ("tree", tree);
    ("bundling", bundling);
    ("avail", avail);
    ("faults", faults);
  ]

let () =
  match Sys.argv with
  | [| _; leg |] when List.mem_assoc leg legs -> (List.assoc leg legs) ()
  | _ ->
    prerr_endline
      ("usage: main.exe " ^ String.concat "|" (List.map fst legs));
    exit 2
