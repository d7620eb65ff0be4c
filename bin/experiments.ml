(* Regenerates the paper's evaluation figures (Section 6).

   - fig1: lower bounds per heuristic class vs QoS goal (WEB and GROUP).
   - fig2: cost of the chosen deployed heuristic vs its class bound, with
     LRU caching for comparison.
   - fig3: the two-phase deployment scenario (node opening + bounds on the
     reduced topology).
   - scale: solver wall-clock vs instance size (the Section 5 discussion).

   The figures themselves are declared and computed in
   [Replica_select.Figure]; this file parses flags and prints.

   Absolute numbers depend on the synthetic substitutes for the paper's
   proprietary trace and topology (see DESIGN.md); the reproduced
   artefacts are the orderings, ceilings and cost ratios. *)

module CS = Replica_select.Case_study
module SS = Replica_select.Scale_scenario
module Report = Replica_select.Report
module Methodology = Replica_select.Methodology
module Figure = Replica_select.Figure

let qos_sweep quick =
  if quick then [ 0.95; 0.999; 0.99999 ] else CS.qos_points

(* Recovery bookkeeping: how each sweep's cells were actually solved and
   how much supervision the worker pool needed. Quiet unless something
   out of the ordinary happened (or faults are being injected, so the
   recovery paths are visibly exercised). *)
let pool_nontrivial (p : Util.Parallel.pool_stats) =
  p.Util.Parallel.worker_deaths > 0
  || p.Util.Parallel.respawns > 0
  || p.Util.Parallel.task_retries > 0
  || p.Util.Parallel.inline_recoveries > 0
  || p.Util.Parallel.timeouts > 0
  || p.Util.Parallel.fork_failures > 0
  || p.Util.Parallel.degraded

let pool_summary (p : Util.Parallel.pool_stats) =
  Printf.sprintf
    "deaths=%d respawns=%d retries=%d inline=%d timeouts=%d fork_failures=%d%s"
    p.Util.Parallel.worker_deaths p.Util.Parallel.respawns
    p.Util.Parallel.task_retries p.Util.Parallel.inline_recoveries
    p.Util.Parallel.timeouts p.Util.Parallel.fork_failures
    (if p.Util.Parallel.degraded then " degraded" else "")

(* Acceptance violations (deadline overruns, failed certificate rechecks)
   accumulate here; the figure drivers exit nonzero when any occurred so
   scripted runs can gate on them. *)
let violations = ref 0

(* The validation families' shared tolerance and violation report: a
   [FAIL <name>: ...] line on stdout, counted in [violations]. *)
let tol x = 1e-6 *. (1. +. Float.abs x)

let fail name fmt =
  incr violations;
  Printf.printf "FAIL %s: " name;
  Printf.kfprintf (fun oc -> output_char oc '\n') stdout fmt

(* --- observability ------------------------------------------------------- *)

(* The ambient Obs configuration is installed once, before any sweep
   forks workers. --trace keeps the deterministic logical clock (the
   trace is byte-identical at every --jobs); --profile switches on
   wall-clock attributes and timing histograms for performance triage. *)
let setup_obs ~trace ~metrics ~profile =
  if trace <> None || metrics <> None || profile then
    Obs.Config.install
      {
        Obs.Config.trace = trace <> None || profile;
        metrics = metrics <> None || profile;
        wall_clock = profile;
        sink =
          (match trace with
          | Some f -> Obs.Config.Jsonl_file f
          | None -> Obs.Config.Null);
        metrics_path = metrics;
      }

(* The counters worth a line in the per-sweep summary: enough to see at
   a glance where a sweep's work went (solver iterations, fallback hops,
   pool supervision) when triaging a degraded or slow cell. *)
let summary_counters =
  lazy
    (List.map
       (fun n -> (n, Obs.Metrics.counter n))
       [
         "pipeline.cells"; "pipeline.fallback_hops"; "pdhg.solves";
         "pdhg.iterations"; "pdhg.restarts"; "pdhg.deadline_stops";
         "simplex.solves"; "simplex.pivots"; "branch_bound.nodes";
         "sim.heuristic_runs"; "pool.tasks_dispatched"; "pool.worker_deaths";
         "pool.task_retries"; "pool.inline_recoveries"; "pool.timeouts";
       ])

(* Metrics accumulate for the whole process, so the per-sweep table
   shows the movement across one sweep: [metrics_mark] reads every
   counter before the sweep, and [print_metrics_moved] prints
   value-after minus value-before for every counter that moved. *)
let metrics_mark () =
  if not (Obs.Config.metering ()) then []
  else
    List.map
      (fun (n, c) -> (n, c, Obs.Metrics.counter_value c))
      (Lazy.force summary_counters)

let print_metrics_moved ~name mark =
  let moved =
    List.filter_map
      (fun (n, c, before) ->
        let d = Obs.Metrics.counter_value c - before in
        if d > 0 then Some (n, d) else None)
      mark
  in
  if moved <> [] then begin
    Printf.printf "metrics %s:\n" name;
    List.iter (fun (n, d) -> Printf.printf "  %-28s %12d\n" n d) moved;
    Printf.printf "%!"
  end

(* --- figures ------------------------------------------------------------- *)

(* A figure command's sweep flags, resolved: [deadline_s] and
   [cell_budget_s] are [infinity] when unset. *)
type sweep_opts = {
  jobs : int;
  journal_dir : string option;
  deadline_s : float;
  cell_budget_s : float;
  timeout_s : float option;
  certify : bool;
  csv_dir : string option;
}

let bound_cells (fig : Figure.t) =
  List.concat_map (fun (b : Figure.bound) -> b.Figure.cells) fig.Figure.bounds

let bound_results fig =
  List.map (fun (c : _ Figure.cell) -> c.Figure.value) (bound_cells fig)

let print_bound_robustness (fig : Figure.t) =
  let sweep = fig.Figure.bound_sweep in
  let paths =
    List.filter
      (fun (_, n) -> n > 0)
      (Bounds.Pipeline.path_counts (bound_results fig))
  in
  let retried = List.mem_assoc Bounds.Pipeline.Path_pdhg_retry paths in
  if
    Util.Faults.active () || retried
    || pool_nontrivial sweep.Figure.pool
    || sweep.Figure.resumed > 0
  then
    Printf.printf "robustness %s: paths[%s] pool[%s] resumed=%d\n%!"
      fig.Figure.decl.Figure.sweep_name
      (String.concat " "
         (List.map
            (fun (p, n) ->
              Printf.sprintf "%s=%d" (Bounds.Pipeline.path_label p) n)
            paths))
      (pool_summary sweep.Figure.pool)
      sweep.Figure.resumed

(* Degradation bookkeeping: which quality each cell stopped with, and —
   under a --deadline — whether the sweep honored its budget. The grace
   term is one cell's wall-clock plus scheduling slop: the governor can
   only stop a cell at its next solver checkpoint, so the last cell may
   straddle the deadline by its own runtime but never more. *)
let print_bound_quality o (fig : Figure.t) =
  let name = fig.Figure.decl.Figure.sweep_name in
  let budgeted =
    Float.is_finite o.deadline_s || Float.is_finite o.cell_budget_s
  in
  let counts =
    List.filter
      (fun (_, n) -> n > 0)
      (Bounds.Pipeline.quality_counts (bound_results fig))
  in
  let degraded =
    List.exists
      (fun (q, _) ->
        q = Bounds.Pipeline.Iter_budget || q = Bounds.Pipeline.Time_budget)
      counts
  in
  if budgeted || degraded then
    Printf.printf "quality %s: %s\n%!" name
      (String.concat " "
         (List.map
            (fun (q, n) ->
              Printf.sprintf "%s=%d" (Bounds.Pipeline.quality_label q) n)
            counts));
  if Float.is_finite o.deadline_s then begin
    let max_cell =
      List.fold_left
        (fun acc (c : _ Figure.cell) -> Float.max acc c.Figure.wall_s)
        0. (bound_cells fig)
    in
    let grace = max_cell +. 1.0 in
    let elapsed = fig.Figure.bound_sweep.Figure.elapsed_s in
    if elapsed <= o.deadline_s +. grace then
      Printf.printf "deadline %s: budget %.2fs elapsed %.2fs (within; grace %.2fs)\n%!"
        name o.deadline_s elapsed grace
    else begin
      incr violations;
      Printf.printf "deadline %s: budget %.2fs elapsed %.2fs OVERRUN (grace %.2fs)\n%!"
        name o.deadline_s elapsed grace
    end
  end

(* Recheck every cell's certificate from scratch (see
   {!Bounds.Pipeline.certify}): feasible cells must reproduce their bound
   from the attached dual, infeasible cells must carry a Farkas ray that
   [check_farkas] accepts. *)
let certify_bounds (fig : Figure.t) =
  let d = fig.Figure.decl in
  let total = ref 0 and ok = ref 0 in
  List.iter
    (fun (b : Figure.bound) ->
      List.iter
        (fun (c : _ Figure.cell) ->
          incr total;
          let q = c.Figure.fraction in
          match
            Bounds.Pipeline.certify ?placeable:d.Figure.placeable
              (Figure.at_fraction d.Figure.spec q)
              b.Figure.cls c.Figure.value
          with
          | Ok () -> incr ok
          | Error msg ->
            incr violations;
            Printf.printf "certificate FAIL %s @ %.5f: %s\n%!" b.Figure.label
              q msg)
        b.Figure.cells)
    fig.Figure.bounds;
  Printf.printf "certificates %s: %d/%d verified\n%!" d.Figure.sweep_name !ok
    !total

(* Run a declared figure and print it: each batch's lines as soon as it
   finishes — the bound sweep's metrics, robustness, quality, deadline
   and certificate lines, each deployed column's robustness line — then
   the figure and timing tables, [claims], and the CSV. [announce] logs
   each deployed column as it starts. *)
let show_figure ?(announce = false) ?(claims = ignore) o (d : Figure.decl) =
  let mark = metrics_mark () in
  let fig =
    Figure.run ?journal_dir:o.journal_dir ~deadline_s:o.deadline_s
      ~cell_budget_s:o.cell_budget_s ?timeout_s:o.timeout_s ~jobs:o.jobs d
      ~on_event:(function
        | Figure.Bounds_done fig ->
          print_metrics_moved ~name:d.Figure.sweep_name mark;
          print_bound_robustness fig;
          print_bound_quality o fig;
          if o.certify then certify_bounds fig
        | Figure.Deploying label ->
          if announce then
            Logs.app (fun f -> f "%s: %s ..." d.Figure.timing_title label)
        | Figure.Deployed_done col ->
          let pool = col.Figure.deploy_sweep.Figure.pool in
          if pool_nontrivial pool then
            Printf.printf "robustness %s: pool[%s]\n%!" col.Figure.heuristic
              (pool_summary pool))
  in
  Report.print_figure fig;
  Report.print_timing ~jobs:o.jobs fig;
  claims fig;
  match o.csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (d.Figure.name ^ ".csv") in
    let oc = open_out path in
    output_string oc (Report.csv_of_figure fig);
    close_out oc;
    Printf.printf "wrote %s\n%!" path

let announce_grid o (d : Figure.decl) =
  Logs.app (fun f ->
      f "%s: %d classes x %d points, jobs=%d ..." d.Figure.timing_title
        (List.length d.Figure.classes)
        (List.length d.Figure.points)
        o.jobs)

let fig1 o cs ~points =
  let d = Figure.fig1 cs ~points in
  announce_grid o d;
  show_figure o d

(* The introduction's headline claim: cost ratio of the default heuristic
   (LRU, fig2's second deployed column) to the methodology's choice (its
   first), at the goals both can meet. *)
let print_intro_claims workload (fig : Figure.t) =
  match fig.Figure.deployed with
  | [ chosen; lru ] ->
    List.iter2
      (fun (c : _ Figure.cell) (l : _ Figure.cell) ->
        match (c.Figure.value, l.Figure.value) with
        | Some c', Some l' when c'.Sim.Runner.cost > 0. ->
          Printf.printf
            "intro-claim %s @ %.5f: LRU costs %.1fx the chosen heuristic\n"
            (CS.workload_name workload) c.Figure.fraction
            (l'.Sim.Runner.cost /. c'.Sim.Runner.cost)
        | _ -> ())
      chosen.Figure.outcomes lru.Figure.outcomes
  | _ -> ()

let fig2 o (cs : CS.t) ~points =
  let d = Figure.fig2 cs ~points in
  Logs.app (fun f -> f "%s: class bound ..." d.Figure.timing_title);
  show_figure ~announce:true ~claims:(print_intro_claims cs.CS.workload) o d

let fig3 o ~zeta (cs : CS.t) ~points =
  match Figure.fig3 ~zeta cs ~points with
  | None ->
    Printf.printf "fig3 %s: no deployment can meet the goal\n"
      (CS.workload_name cs.CS.workload)
  | Some (plan, d) ->
    Report.print_deployment plan;
    announce_grid o d;
    show_figure o d

(* --- Scale (Section 5 runtime discussion) -------------------------------- *)

let scale_experiment ~seed () =
  Printf.printf
    "\n=== Solver wall-clock vs instance scale (general bound, WEB, 99%%) ===\n";
  Printf.printf "%-8s %-10s %-10s %-12s %-12s %-10s\n" "scale" "vars" "rows"
    "solve(s)" "round(s)" "gap";
  List.iter
    (fun scale ->
      let cs = CS.make ~seed ~scale CS.Web in
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
      let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
      let model = Mcperf.Model.build perm in
      let t0 = Unix.gettimeofday () in
      let out =
        Lp.Pdhg.solve ~options:Bounds.Pipeline.default_pdhg_options
          model.Mcperf.Model.problem
      in
      let t1 = Unix.gettimeofday () in
      let rounded = Rounding.Round.round model ~x:out.Lp.Pdhg.x in
      let t2 = Unix.gettimeofday () in
      let gap =
        match rounded with
        | Ok r ->
          let c = r.Rounding.Round.evaluation.Mcperf.Costing.total in
          Printf.sprintf "%.1f%%"
            (100. *. (c -. out.Lp.Pdhg.best_bound) /. Float.max c 1e-9)
        | Error _ -> "-"
      in
      Printf.printf "%-8.3f %-10d %-10d %-12.2f %-12.2f %-10s\n%!" scale
        (Lp.Problem.nvars model.Mcperf.Model.problem)
        (Lp.Problem.nrows model.Mcperf.Model.problem)
        (t1 -. t0) (t2 -. t1) gap)
    [ 0.02; 0.05; 0.1; 0.2 ]

(* --- Selection methodology demo (Section 6.1 narrative) ------------------- *)

let selection (cs : CS.t) =
  let spec = CS.qos_spec cs ~fraction:0.999 ~for_bounds:true () in
  let sel = Methodology.select spec in
  Report.print_selection
    ~title:
      (Printf.sprintf "Heuristic selection for %s at 99.9%% QoS"
         (CS.workload_name cs.CS.workload))
    sel


(* --- validate: cross-check every bound producer on small instances -------- *)

let validate ~seed () =
  (* [lo <= hi] within [tol hi]; a NaN on either side (a failed solve)
     is a violation too. *)
  let ordered name what lo hi =
    if not (lo <= hi +. tol hi) then
      fail name "%s: %.6f above %.6f" what lo hi
  in
  Printf.printf
    "\n=== Cross-validation: simplex LP vs PDHG and Lagrangian bounds vs \
     rounding (8 nodes, WEB at scale 0.01) ===\n";
  Printf.printf "%-30s %12s %12s %12s %12s\n" "class" "simplex-LP"
    "pdhg-bound" "lagrangian" "rounded";
  let cs = CS.make ~seed ~nodes:8 ~scale:0.01 ~intervals:8 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  List.iter
    (fun (cls : Mcperf.Classes.t) ->
      let name = cls.Mcperf.Classes.name in
      let perm = Mcperf.Permission.compute spec cls in
      if not (Mcperf.Permission.feasible perm) then
        Printf.printf "%-30s infeasible at this goal\n" name
      else begin
        let model = Mcperf.Model.build perm in
        let problem = model.Mcperf.Model.problem in
        let offset = model.Mcperf.Model.objective_offset in
        let simplex_lp, x_exact =
          match Lp.Simplex.solve problem with
          | Lp.Simplex.Optimal { x; objective } -> (objective, Some x)
          | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> (nan, None)
        in
        let pdhg =
          (Lp.Pdhg.solve
             ~options:{ Lp.Pdhg.default_options with max_iters = 10_000; rel_tol = 1e-5 }
             problem)
            .Lp.Pdhg.best_bound
        in
        let lagr =
          (Bounds.Lagrangian.bound ~iterations:40 spec cls)
            .Bounds.Lagrangian.bound
        in
        let rounded =
          match x_exact with
          | Some x -> (
            match Rounding.Round.round model ~x with
            | Ok r -> r.Rounding.Round.evaluation.Mcperf.Costing.total
            | Error _ -> nan)
          | None -> nan
        in
        Printf.printf "%-30s %12.2f %12.2f %12.2f %12.2f\n%!" name simplex_lp
          pdhg lagr rounded;
        (* The LP and PDHG values leave out the model's constant term;
           the Lagrangian and the rounded cost are full costs. *)
        ordered name "PDHG bound vs simplex LP" pdhg simplex_lp;
        ordered name "Lagrangian vs simplex LP" lagr (simplex_lp +. offset);
        ordered name "simplex LP vs rounded" (simplex_lp +. offset) rounded
      end)
    [
      Mcperf.Classes.general;
      Mcperf.Classes.storage_constrained;
      Mcperf.Classes.replica_constrained;
      Mcperf.Classes.replica_constrained_uniform;
      Mcperf.Classes.cooperative_caching;
    ];
  (* A second, genuinely tiny instance where the exact IP is tractable:
     the LP bound must sit below the IP optimum, the rounded cost above. *)
  Printf.printf
    "\n=== Tiny instance (5 nodes, 4 intervals): LP <= IP <= rounded ===\n";
  Printf.printf "%-30s %12s %12s %12s\n" "class" "LP" "IP" "rounded";
  let cs = CS.make ~seed ~nodes:5 ~scale:0.002 ~intervals:4 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.9 ~for_bounds:true () in
  List.iter
    (fun (cls : Mcperf.Classes.t) ->
      let name = cls.Mcperf.Classes.name in
      let perm = Mcperf.Permission.compute spec cls in
      if not (Mcperf.Permission.feasible perm) then
        Printf.printf "%-30s infeasible at this goal\n" name
      else begin
        let model = Mcperf.Model.build perm in
        let problem = model.Mcperf.Model.problem in
        match Lp.Simplex.solve problem with
        | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
          Printf.printf "%-30s LP failed\n" name;
          fail name "simplex LP failed on a feasible class"
        | Lp.Simplex.Optimal { x; objective = lp } ->
          let ip =
            match Ipsolve.Branch_bound.solve ~max_nodes:20_000 problem with
            | Ipsolve.Branch_bound.Optimal { objective; _ } -> objective
            | Ipsolve.Branch_bound.Node_limit _
            | Ipsolve.Branch_bound.Infeasible ->
              nan
          in
          let rounded =
            match Rounding.Round.round model ~x with
            | Ok r -> r.Rounding.Round.evaluation.Mcperf.Costing.total
            | Error _ -> nan
          in
          Printf.printf "%-30s %12.2f %12.2f %12.2f\n%!" name lp ip rounded;
          ordered name "LP vs IP" lp ip;
          ordered name "IP vs rounded"
            (ip +. model.Mcperf.Model.objective_offset)
            rounded
      end)
    [ Mcperf.Classes.general; Mcperf.Classes.replica_constrained ];
  Printf.printf "\ncross-validation: %s\n%!"
    (if !violations = 0 then "all checks passed"
     else Printf.sprintf "%d violations" !violations)

(* --- validate --family tree: the exact DP as ground truth ----------------- *)

module TS = Replica_select.Tree_scenario

(* Every number printed here is deterministic (no wall clocks), so
   scripted runs can [cmp] the output across --jobs settings. *)
let validate_tree ~seed ~count ~jobs () =
  Printf.printf
    "\n=== Tree family: exact DP vs every other producer (%d instances, seed %d) ===\n"
    count seed;
  Printf.printf "%-22s %5s %5s %9s %9s %9s %9s %9s %9s %12s\n" "instance"
    "nodes" "sites" "dp" "simplex" "pdhg" "lagrange" "rounded" "propor"
    "path";
  let family = TS.family ~seed ~count () in
  List.iter
    (fun (scen : TS.t) ->
      let spec = scen.TS.spec and placeable = scen.TS.placeable in
      let name = scen.TS.name in
      let nodes = Mcperf.Spec.node_count spec in
      let sites =
        match placeable with
        | None -> nodes
        | Some p -> Array.fold_left (fun n b -> if b then n + 1 else n) 0 p
      in
      let dp_cell = Bounds.Pipeline.compute ?placeable spec Mcperf.Classes.general in
      if not dp_cell.Bounds.Pipeline.feasible then
        fail name "general class infeasible";
      if dp_cell.Bounds.Pipeline.solve_path <> Bounds.Pipeline.Path_tree_dp
      then
        fail name "not routed through tree-dp (%s)"
          (Bounds.Pipeline.path_label dp_cell.Bounds.Pipeline.solve_path);
      let dp = dp_cell.Bounds.Pipeline.lower_bound in
      (match
         Bounds.Pipeline.certify ?placeable spec Mcperf.Classes.general
           dp_cell
       with
      | Ok () -> ()
      | Error msg -> fail name "certify rejected the DP cell: %s" msg);
      let lp_cell =
        Bounds.Pipeline.compute ~solver:Bounds.Pipeline.Exact_simplex
          ?placeable spec Mcperf.Classes.general
      in
      let lp = lp_cell.Bounds.Pipeline.lower_bound in
      if lp > dp +. tol dp then fail name "simplex LP %.6f above DP %.6f" lp dp;
      let rounded =
        match lp_cell.Bounds.Pipeline.rounded with
        | None -> nan
        | Some r ->
          let ev = r.Rounding.Round.evaluation in
          if not ev.Mcperf.Costing.meets_goal then
            fail name "rounded LP placement misses the goal";
          if ev.Mcperf.Costing.total < dp -. tol dp then
            fail name "rounded LP cost %.6f below DP optimum %.6f"
              ev.Mcperf.Costing.total dp;
          ev.Mcperf.Costing.total
      in
      let pdhg_cell =
        Bounds.Pipeline.compute
          ~solver:
            (Bounds.Pipeline.First_order
               {
                 Lp.Pdhg.default_options with
                 Lp.Pdhg.max_iters = 20_000;
                 rel_tol = 1e-6;
               })
          ?placeable spec Mcperf.Classes.general
      in
      let pdhg = pdhg_cell.Bounds.Pipeline.lower_bound in
      if pdhg > dp +. tol dp then
        fail name "PDHG bound %.6f above DP %.6f" pdhg dp;
      (* the Lagrangian producer has no placeable support; compare only
         on unrestricted instances *)
      let lagr =
        match placeable with
        | Some _ -> nan
        | None ->
          let b =
            (Bounds.Lagrangian.bound ~iterations:40 spec
               Mcperf.Classes.general)
              .Bounds.Lagrangian.bound
          in
          if b > dp +. tol dp then
            fail name "Lagrangian %.6f above DP %.6f" b dp;
          b
      in
      let prop =
        match
          Sim.Runner.deploy_offline ?placeable
            ~factory:Heuristics.Proportional.strategy ~spec ()
        with
        | None ->
          fail name "proportional search found no feasible budget";
          nan
        | Some d ->
          if d.Sim.Runner.cost < dp -. tol dp then
            fail name "proportional cost %.6f below DP optimum %.6f"
              d.Sim.Runner.cost dp;
          d.Sim.Runner.cost
      in
      Printf.printf "%-22s %5d %5d %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %12s\n%!"
        name nodes sites dp lp pdhg lagr rounded prop
        (Bounds.Pipeline.path_label dp_cell.Bounds.Pipeline.solve_path))
    family;
  (* Sweep layer: the same instances through sweep_classes at the
     requested --jobs; every general cell must take the DP path and the
     printed grid is identical at any --jobs (which is why the header
     does not echo the jobs count). *)
  Printf.printf "\n=== Tree sweeps (general + caching) ===\n";
  List.iter
    (fun (scen : TS.t) ->
      let cfg =
        {
          Bounds.Pipeline.Sweep_config.default with
          Bounds.Pipeline.Sweep_config.jobs;
          placeable = scen.TS.placeable;
        }
      in
      let sweep =
        Bounds.Pipeline.sweep_classes cfg scen.TS.spec
          ~fractions:TS.default_fractions
          [
            ("general", Mcperf.Classes.general);
            ( "caching",
              Mcperf.Classes.allow_intra_interval_reaction
                Mcperf.Classes.caching );
          ]
      in
      List.iter
        (fun (label, cells) ->
          Printf.printf "%-22s %-8s" scen.TS.name label;
          List.iter
            (fun (q, (r : Bounds.Pipeline.t)) ->
              if
                String.equal label "general"
                && r.Bounds.Pipeline.feasible
                && r.Bounds.Pipeline.solve_path
                   <> Bounds.Pipeline.Path_tree_dp
              then
                fail scen.TS.name "sweep cell @ %g not on the DP path" q;
              Printf.printf "  %g:%s" q
                (if r.Bounds.Pipeline.feasible then
                   Printf.sprintf "%.2f" r.Bounds.Pipeline.lower_bound
                 else "-"))
            cells;
          print_newline ())
        sweep.Bounds.Pipeline.per_class)
    family;
  Printf.printf "\ntree validation: %s\n%!"
    (if !violations = 0 then "all checks passed"
     else Printf.sprintf "%d violations" !violations)

(* --- validate --family avail: correlated failures, survivable bounds ------ *)

(* Every number printed here is deterministic (no wall clocks), so
   scripted runs [cmp] the output against a committed one. [count] is the
   sampled scenario count. *)
let validate_avail ~seed ~count () =
  Printf.printf
    "\n=== Avail family: failure sampler, survivability, scenario LP (%d \
     scenarios, seed %d) ===\n"
    count seed;
  let cs = CS.make ~seed ~nodes:8 ~scale:0.01 ~intervals:8 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sys = spec.Mcperf.Spec.system in
  let nodes = Mcperf.Spec.node_count spec in
  let groups = Avail.Groups.derive sys in
  Printf.printf "failure groups: %d\n" (Array.length groups);
  Array.iter
    (fun (g : Avail.Groups.t) ->
      Printf.printf "  %-14s size=%d members=[%s]\n" g.Avail.Groups.name
        (Array.length g.Avail.Groups.members)
        (String.concat ","
           (Array.to_list (Array.map string_of_int g.Avail.Groups.members))))
    groups;
  let sspec = { Avail.Scenario.default with Avail.Scenario.seed; count } in
  let scenarios = Avail.Scenario.sample_all sspec sys ~groups in
  (* Sampler determinism: a second sampling pass must be byte-identical. *)
  let scenarios2 = Avail.Scenario.sample_all sspec sys ~groups in
  Array.iteri
    (fun i s ->
      if
        not
          (String.equal (Avail.Scenario.signature s)
             (Avail.Scenario.signature scenarios2.(i)))
      then fail "sampler" "scenario %d not reproducible" i)
    scenarios;
  Printf.printf "\nscenarios (down-count, signature):";
  Array.iter
    (fun s ->
      Printf.printf " %d:%s" (Avail.Scenario.down_count s)
        (Avail.Scenario.signature s))
    scenarios;
  print_newline ();
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  (* The expected-cost scenario LP for the general class: a lower bound
     on the expected degraded cost of EVERY placement that meets the
     nominal goal. *)
  let bound_cell =
    Bounds.Avail_bound.expected_cost_bound spec Mcperf.Classes.general
      ~scenarios
  in
  if not bound_cell.Bounds.Avail_bound.feasible then
    fail "scenario-lp" "general class reported infeasible at the goal";
  Printf.printf
    "\nscenario LP (general): bound=%.4f vars=%d (%d nominal) rows=%d %s\n"
    bound_cell.Bounds.Avail_bound.expected_bound
    bound_cell.Bounds.Avail_bound.vars
    bound_cell.Bounds.Avail_bound.nominal_vars
    bound_cell.Bounds.Avail_bound.rows
    (if bound_cell.Bounds.Avail_bound.exact then "simplex" else "pdhg");
  (* Placements to check the bound against: the rounded LP solution and
     the two centralized greedy heuristics, all evaluated on the same
     spec. *)
  let rounded =
    match
      (Bounds.Pipeline.compute spec Mcperf.Classes.general)
        .Bounds.Pipeline.rounded
    with
    | Some r -> [ ("rounded-lp", r.Rounding.Round.placement) ]
    | None -> []
  in
  let deployed =
    List.filter_map
      (fun factory ->
        Option.map
          (fun d -> (d.Sim.Runner.name, d.Sim.Runner.placement))
          (Sim.Runner.deploy_offline ~factory ~spec ()))
      [ Heuristics.Greedy_global.strategy; Heuristics.Greedy_replica.strategy ]
  in
  let placements = rounded @ deployed in
  if placements = [] then fail "placements" "no feasible placement produced";
  Printf.printf "\n%-14s %10s %10s %10s %9s %9s %9s\n" "placement" "cost"
    "expected" "lp-bound" "fragility" "worstviol" "meanunav";
  List.iter
    (fun (name, placement) ->
      let base = Mcperf.Costing.evaluate perm placement in
      if not base.Mcperf.Costing.meets_goal then
        fail name "placement misses the nominal goal";
      (* All-up degradation must reproduce the nominal total exactly. *)
      let up = Array.make nodes false in
      let d0 = Avail.Survive.degrade ~base perm placement ~down:up in
      if
        Float.abs (d0.Avail.Survive.degraded_cost -. base.Mcperf.Costing.total)
        > 1e-9 *. (1. +. Float.abs base.Mcperf.Costing.total)
      then
        fail name "all-up degraded cost %.6f <> nominal %.6f"
          d0.Avail.Survive.degraded_cost base.Mcperf.Costing.total;
      (* Monotonicity along a nested chain of failure sets. *)
      let chain = Array.init nodes (fun n -> n) in
      let prev = ref d0.Avail.Survive.degraded_cost in
      let down = Array.make nodes false in
      Array.iter
        (fun n ->
          if n <> sys.Topology.System.origin then begin
            down.(n) <- true;
            let d = Avail.Survive.degrade ~base perm placement ~down in
            if d.Avail.Survive.degraded_cost < !prev -. tol !prev then
              fail name "degraded cost dropped when failing node %d" n;
            prev := d.Avail.Survive.degraded_cost
          end)
        chain;
      let a = Avail.Survive.assess perm placement ~scenarios in
      (* The scenario LP is a valid lower bound on the expected degraded
         cost of this goal-meeting placement. *)
      if
        bound_cell.Bounds.Avail_bound.feasible
        && a.Avail.Survive.expected_cost
           < bound_cell.Bounds.Avail_bound.expected_bound
             -. tol bound_cell.Bounds.Avail_bound.expected_bound
      then
        fail name "expected degraded cost %.6f below scenario LP %.6f"
          a.Avail.Survive.expected_cost
          bound_cell.Bounds.Avail_bound.expected_bound;
      (* k-failure checks agree with their own survives flag. *)
      let checks = Bounds.Avail_bound.k_failure_check perm placement ~groups in
      let survived =
        Array.fold_left
          (fun acc (c : Bounds.Avail_bound.group_check) ->
            let expect =
              c.Bounds.Avail_bound.violation <= 0.05 +. 1e-12
            in
            if expect <> c.Bounds.Avail_bound.survives then
              fail name "k-failure survives flag inconsistent for %s"
                c.Bounds.Avail_bound.group;
            if c.Bounds.Avail_bound.survives then acc + 1 else acc)
          0 checks
      in
      Printf.printf "%-14s %10.2f %10.2f %10.2f %9.4f %9.4f %9.4f  k2:%d/%d\n"
        name base.Mcperf.Costing.total a.Avail.Survive.expected_cost
        bound_cell.Bounds.Avail_bound.expected_bound
        a.Avail.Survive.fragility a.Avail.Survive.worst_violation
        a.Avail.Survive.mean_unavailable survived (Array.length checks))
    placements;
  (* Timeline: deterministic regeneration and a replay over it. *)
  let tl = Avail.Scenario.timeline sspec sys ~groups in
  let tl2 = Avail.Scenario.timeline sspec sys ~groups in
  if
    not
      (String.equal
         (Avail.Scenario.render_timeline tl)
         (Avail.Scenario.render_timeline tl2))
  then fail "timeline" "regeneration not byte-identical";
  let down_steps =
    Array.fold_left
      (fun acc row -> if Array.exists (fun d -> d) row then acc + 1 else acc)
      0 tl.Avail.Scenario.down
  in
  Printf.printf "\ntimeline: %d steps, %d with failures\n"
    tl.Avail.Scenario.steps down_steps;
  (match placements with
  | (name, placement) :: _ ->
    let r = Sim.Runner.degradation_replay ~perm ~placement ~timeline:tl () in
    Printf.printf
      "replay %s: unavail_steps=%d worst_violation=%.4f mean_cost_ratio=%.4f\n"
      name r.Sim.Runner.unavail_steps r.Sim.Runner.worst_violation
      r.Sim.Runner.mean_cost_ratio
  | [] -> ());
  Printf.printf "\navail validation: %s\n%!"
    (if !violations = 0 then "all checks passed"
     else Printf.sprintf "%d violations" !violations)

(* --- avail figure: fragility frontier vs the scenario-LP bound ------------ *)

(* Every deployed heuristic is sized at the nominal goal as in fig2, then
   re-priced under the sampled correlated-failure scenarios: the table
   ranks heuristics by fragility (expected degraded-cost blow-up) and
   compares their expected degraded cost against the class-level scenario
   LP (a certified lower bound for every goal-meeting placement). A
   degradation replay over the failure timeline adds the temporal view.
   The command's one fan-out is over the heuristics: each task deploys,
   assesses, k-failure-checks and replays one of them. Timings go to
   stderr; stdout is deterministic. *)
let figavail ~seed ~scale ~scenarios:scenario_count ~jobs workload =
  let cs = CS.make ~seed ~scale workload in
  let fraction = 0.95 in
  let sim_spec = CS.qos_spec cs ~fraction ~for_bounds:false () in
  let bound_spec = CS.qos_spec cs ~fraction ~for_bounds:true () in
  let sys = sim_spec.Mcperf.Spec.system in
  let groups = Avail.Groups.derive sys in
  let sspec =
    {
      Avail.Scenario.default with
      Avail.Scenario.seed;
      count = scenario_count;
    }
  in
  let scenarios = Avail.Scenario.sample_all sspec sys ~groups in
  let perm = Mcperf.Permission.compute sim_spec Mcperf.Classes.general in
  Printf.printf
    "\n=== figavail (%s): fragility frontier @ QoS %.2f (%d scenarios, %d \
     failure groups, seed %d) ===\n"
    (CS.workload_name workload) fraction (Array.length scenarios)
    (Array.length groups) seed;
  let t0 = Unix.gettimeofday () in
  let factories =
    Heuristics.
      [
        Cache_strategy.lru;
        Cache_strategy.cooperative;
        Cache_strategy.prefetching;
        Cache_strategy.hierarchical;
        Greedy_global.strategy;
        Greedy_replica.strategy;
      ]
  in
  let timeline = Avail.Scenario.timeline sspec sys ~groups in
  let assess_one factory =
    match
      Sim.Runner.deploy_offline ~trace:cs.CS.trace ~factory ~spec:sim_spec ()
    with
    | Some d ->
      let p = d.Sim.Runner.placement in
      let a = Avail.Survive.assess perm p ~scenarios in
      let checks = Bounds.Avail_bound.k_failure_check perm p ~groups in
      let survived =
        Array.fold_left
          (fun acc (c : Bounds.Avail_bound.group_check) ->
            if c.Bounds.Avail_bound.survives then acc + 1 else acc)
          0 checks
      in
      let replay =
        Sim.Runner.degradation_replay ~perm ~placement:p ~timeline ()
      in
      Some (d, a, survived, Array.length checks, replay)
    | None -> None
  in
  let assessed =
    List.filter_map Fun.id
      (Util.Parallel.map_values ~jobs ~f:assess_one factories)
  in
  (* Rank by fragility, most robust first; ties break on the name. *)
  let ranked =
    List.stable_sort
      (fun (d1, a1, _, _, _) (d2, a2, _, _, _) ->
        match compare a1.Avail.Survive.fragility a2.Avail.Survive.fragility with
        | 0 -> compare d1.Sim.Runner.name d2.Sim.Runner.name
        | c -> c)
      assessed
  in
  (* [cost] is the deployed, class-priced cost (as in fig2); [nominal]
     and [expected] re-price the placement uniformly under the general
     class, which is what fragility relates. *)
  Printf.printf "%-28s %5s %10s %10s %10s %9s %9s %9s %6s %12s\n" "heuristic"
    "param" "cost" "nominal" "expected" "fragility" "worstviol" "meanunav"
    "k2-ok" "replay";
  List.iter
    (fun ((d : Sim.Runner.deployed), a, survived, total, (r : Sim.Runner.replay)) ->
      Printf.printf
        "%-28s %5d %10.1f %10.1f %10.1f %9.4f %9.4f %9.4f %3d/%-3d %5d/%d steps\n"
        d.Sim.Runner.name d.Sim.Runner.parameter d.Sim.Runner.cost
        a.Avail.Survive.base_cost a.Avail.Survive.expected_cost
        a.Avail.Survive.fragility
        a.Avail.Survive.worst_violation a.Avail.Survive.mean_unavailable
        survived total r.Sim.Runner.unavail_steps
        (Array.length r.Sim.Runner.steps))
    ranked;
  (* Class-level expected-cost bounds on the aggregated bound demand. *)
  let chosen_cls, chosen_name =
    match workload with
    | CS.Web -> (Mcperf.Classes.storage_constrained, "storage-constrained")
    | CS.Group ->
      (Mcperf.Classes.replica_constrained_uniform, "replica-constrained")
  in
  Printf.printf "\n%-28s %12s %12s %8s %8s\n" "class" "nominal-lb"
    "expected-lb" "vars" "solver";
  List.iter
    (fun (label, cls) ->
      let nominal = Bounds.Pipeline.compute bound_spec cls in
      let cell =
        Bounds.Avail_bound.expected_cost_bound bound_spec cls ~scenarios
      in
      Printf.printf "%-28s %12.1f %12.1f %8d %8s\n" label
        (if nominal.Bounds.Pipeline.feasible then
           nominal.Bounds.Pipeline.lower_bound
         else nan)
        (if cell.Bounds.Avail_bound.feasible then
           cell.Bounds.Avail_bound.expected_bound
         else nan)
        cell.Bounds.Avail_bound.vars
        (if cell.Bounds.Avail_bound.exact then "simplex" else "pdhg"))
    [ ("general", Mcperf.Classes.general); (chosen_name, chosen_cls) ];
  Printf.eprintf "figavail %s: %.1fs\n%!" (CS.workload_name workload)
    (Unix.gettimeofday () -. t0)

(* --- scale figure: Lagrangian sweep on the CDN scale family --------------- *)

(* Fig2-style sweep at 200+ nodes and 10k objects, far past where the
   monolithic LP is tractable, via the bundled Lagrangian decomposition.
   Everything printed on stdout is deterministic in the inputs (timings
   go to stderr), so check.sh can [cmp] a run against a committed
   output byte for byte. *)
let figscale ~seed ~objects ~check () =
  let fail fmt = fail "figscale" fmt in
  let points = [ 0.9; 0.95; 0.99 ] in
  let scen = SS.make ~seed ~objects () in
  let spec = SS.qos_spec scen ~fraction:(List.hd points) in
  let t0 = Unix.gettimeofday () in
  let sweep =
    Bounds.Lagrangian.sweep ~iterations:40 spec Mcperf.Classes.general
      ~fractions:points
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "\n=== Scale figure: %s (%d nodes, %d objects, %d leaves) ===\n"
    scen.SS.name (SS.node_count scen) (SS.object_count scen) scen.SS.leaves;
  (match sweep with
  | (_, out) :: _ ->
    Printf.printf
      "bundling: %d objects -> %d bundles (%.1fx), %d rescaled members\n"
      out.Bounds.Lagrangian.objects out.Bounds.Lagrangian.bundles
      (float_of_int out.Bounds.Lagrangian.objects
      /. float_of_int (max 1 out.Bounds.Lagrangian.bundles))
      out.Bounds.Lagrangian.rescaled_members
  | [] -> ());
  Printf.printf "%-8s %14s %10s %10s\n" "QoS" "lagr-bound" "sub-exact"
    "sub-pdhg";
  List.iter
    (fun (q, (out : Bounds.Lagrangian.outcome)) ->
      Printf.printf "%-8g %14.2f %10d %10d\n" q out.Bounds.Lagrangian.bound
        out.Bounds.Lagrangian.subproblems_exact
        out.Bounds.Lagrangian.subproblems_bounded)
    sweep;
  Printf.eprintf "figscale: sweep %.2fs\n%!" elapsed;
  if check then begin
    (* Down-shifted instance where the monolithic LP is still exactly
       solvable: the Lagrangian dual must stay below the LP optimum
       (weak duality), and — the family being homogeneous — the bundled
       bound must equal the forced-unbundled one bit for bit. *)
    let small = SS.make ~seed ~fanouts:[ 2; 3 ] ~objects:60 () in
    List.iter
      (fun q ->
        let spec = SS.qos_spec small ~fraction:q in
        let bundled =
          Bounds.Lagrangian.bound ~iterations:40 spec Mcperf.Classes.general
        in
        let unbundled =
          Bounds.Lagrangian.bound ~iterations:40 ~bundling:false spec
            Mcperf.Classes.general
        in
        if
          bundled.Bounds.Lagrangian.bound
          <> unbundled.Bounds.Lagrangian.bound
        then
          fail "bundled %.17g <> unbundled %.17g at QoS %g"
            bundled.Bounds.Lagrangian.bound
            unbundled.Bounds.Lagrangian.bound q;
        let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
        if Mcperf.Permission.feasible perm then begin
          let model = Mcperf.Model.build perm in
          match Lp.Simplex.solve model.Mcperf.Model.problem with
          | Lp.Simplex.Optimal { objective = lp; _ } ->
            if bundled.Bounds.Lagrangian.bound > lp +. 1e-6 then
              fail "lagrangian %.6f above LP optimum %.6f at QoS %g"
                bundled.Bounds.Lagrangian.bound lp q
          | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
            fail "small-instance LP did not solve at QoS %g" q
        end)
      points;
    if !violations = 0 then Printf.printf "scale checks passed\n%!"
  end

(* --- ablations: the design choices DESIGN.md calls out -------------------- *)

let ablation ~seed () =
  (* 1. Object aggregation: exact pattern classes vs popularity clusters.
     GROUP's uniform popularity makes clustering near-lossless and much
     faster; the table quantifies both claims. *)
  Printf.printf "\n=== Ablation 1: object aggregation (GROUP, 99%% QoS) ===\n";
  Printf.printf "%-24s %10s %14s %10s\n" "aggregation" "classes" "general-bound"
    "time(s)";
  List.iter
    (fun (label, bound_classes) ->
      let cs = CS.make ~seed ~bound_classes CS.Group in
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
      let t0 = Unix.gettimeofday () in
      let r = Bounds.Pipeline.compute spec Mcperf.Classes.general in
      Printf.printf "%-24s %10d %14.1f %10.1f\n%!" label
        cs.CS.bound_demand.Workload.Demand.objects
        r.Bounds.Pipeline.lower_bound
        (Unix.gettimeofday () -. t0))
    [ ("exact patterns", 1000); ("popularity clusters", 24) ];
  (* 2. PDHG restarts: certified bound after a fixed budget. *)
  Printf.printf "\n=== Ablation 2: PDHG restart-to-average (WEB SC, 99.9%%, 8k iters) ===\n";
  let cs = CS.make ~seed CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.999 ~for_bounds:true () in
  let perm =
    Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained
  in
  let model = Mcperf.Model.build perm in
  List.iter
    (fun (label, restart_every) ->
      let t0 = Unix.gettimeofday () in
      let out =
        Lp.Pdhg.solve
          ~options:
            {
              Lp.Pdhg.default_options with
              max_iters = 8_000;
              rel_tol = 1e-7;
              restart_every;
            }
          model.Mcperf.Model.problem
      in
      Printf.printf "%-24s bound %12.1f  pinf %9.2e  (%.1fs)\n%!" label
        out.Lp.Pdhg.best_bound out.Lp.Pdhg.primal_infeasibility
        (Unix.gettimeofday () -. t0))
    [ ("no restarts", 0); ("restart every 1000", 1_000) ];
  (* 3. Replacement policy: same class bound, different deployed costs. *)
  Printf.printf "\n=== Ablation 3: replacement policy (WEB at 95%% QoS) ===\n";
  Printf.printf "%-10s %10s %12s %12s\n" "policy" "capacity" "cost" "worst-QoS";
  let sim_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  List.iter
    (fun policy ->
      match
        Sim.Runner.deploy_offline ~trace:cs.CS.trace
          ~factory:(Heuristics.Cache_strategy.policy policy) ~spec:sim_spec ()
      with
      | Some d ->
        Printf.printf "%-10s %10d %12.0f %12.5f\n%!"
          (Heuristics.Policy_cache.kind_name policy)
          d.Sim.Runner.parameter d.Sim.Runner.cost d.Sim.Runner.worst_qos
      | None ->
        Printf.printf "%-10s cannot meet the goal\n"
          (Heuristics.Policy_cache.kind_name policy))
    [ Heuristics.Policy_cache.Lru; Heuristics.Policy_cache.Fifo;
      Heuristics.Policy_cache.Lfu ];
  (* 4. The per-access reactive refinement (Theorem 3) on the caching
     ceiling. *)
  Printf.printf
    "\n=== Ablation 4: per-access reactive refinement (GROUP caching ceiling) ===\n";
  let csg = CS.make ~seed CS.Group in
  let specg = CS.qos_spec csg ~fraction:0.999 ~for_bounds:true () in
  List.iter
    (fun (label, cls) ->
      let p = Mcperf.Permission.compute specg cls in
      let ceiling =
        Array.fold_left Float.min 1. (Mcperf.Permission.max_feasible_qos p)
      in
      Printf.printf "%-34s worst-user ceiling %.5f\n%!" label ceiling)
    [
      ("caching, interval-exact (20a)", Mcperf.Classes.caching);
      ( "caching, per-access (Theorem 3)",
        Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
    ]


(* --- workload: profile the synthetic case-study traces -------------------- *)

let workload_profiles ~scale ~seed () =
  List.iter
    (fun w ->
      let cs = CS.make ~seed ~scale w in
      Printf.printf "\n=== Workload profile: %s (scale %.2f) ===\n"
        (CS.workload_name w) scale;
      Format.printf "%a@." Workload.Profile.pp
        (Workload.Profile.of_trace cs.CS.trace))
    [ CS.Web; CS.Group ]


(* --- baselines: Qiu et al.'s placement-strategy comparison ---------------- *)

let baselines ~scale ~seed () =
  List.iter
    (fun w ->
      let cs = CS.make ~seed ~scale w in
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:false () in
      Printf.printf
        "\n=== Placement strategies at fixed replication factors (%s, RC class) ===\n"
        (CS.workload_name w);
      Printf.printf "(worst-user QoS bought by the same storage budget)\n";
      Printf.printf "%-10s %12s %12s %12s\n" "replicas" "random" "hotspot"
        "greedy";
      List.iter
        (fun replicas ->
          let results =
            Heuristics.Placement_baselines.compare_strategies
              ~rng:(Util.Prng.create ~seed) ~spec ~replicas ()
          in
          (* The uniform replica constraint fixes the storage bill at
             alpha*I*K*R for every strategy; what distinguishes them is the
             worst-user QoS the same budget buys. *)
          let cost st =
            let _, (e : Mcperf.Costing.evaluation) =
              List.find (fun (s, _) -> s = st) results
            in
            Printf.sprintf "%.5f%s"
              (Array.fold_left Float.min 1. e.Mcperf.Costing.qos)
              (if e.Mcperf.Costing.meets_goal then "" else "*")
          in
          Printf.printf "%-10d %12s %12s %12s\n%!" replicas
            (cost Heuristics.Placement_baselines.Random)
            (cost Heuristics.Placement_baselines.Hotspot)
            (cost Heuristics.Placement_baselines.Greedy))
        [ 1; 2; 4; 8 ];
      Printf.printf "(* = does not meet the 99%% QoS goal at this factor)\n")
    [ CS.Web; CS.Group ]

(* --- serve: the epoch-driven online placement service --------------------- *)

(* The system, trace and label a replay serves, or the one-line defect of
   the file that stops it. *)
let load_replay ~trace_file ~topo_file =
  match Topology.Topo_io.load_system_result ~path:topo_file with
  | Error e -> Error (Util.Parse_error.to_string e)
  | Ok system -> (
    match Workload.Trace_io.load_result ~path:trace_file with
    | Error e -> Error (Util.Parse_error.to_string e)
    | Ok trace ->
      let nt = Workload.Trace.node_count trace
      and ns = Topology.System.node_count system in
      if nt <> ns then
        Error
          (Printf.sprintf "%s: %d nodes, but the topology %s has %d"
             trace_file nt topo_file ns)
      else Ok (system, trace, Filename.basename trace_file))

let serve ~system ~trace ~label ~intervals ~epoch_intervals ~fraction ~tlat_ms
    ~strategies () =
  let interval_s = Workload.Trace.duration_s trace /. float_of_int intervals in
  let factories =
    match strategies with
    | [] -> Online.Engine.default_strategies
    | named -> named
  in
  let config =
    {
      Online.Engine.system;
      interval_s;
      epoch_intervals;
      goal = Mcperf.Spec.Qos { tlat_ms; fraction };
      strategies = factories;
    }
  in
  Printf.printf
    "online service: %s nodes=%d intervals=%d epoch=%d fraction=%.5f \
     tlat=%.0fms strategies=%s\n"
    label
    (Topology.System.node_count system)
    intervals epoch_intervals fraction tlat_ms
    (String.concat "," (List.map fst factories));
  let engine = Online.Engine.create config in
  let chunks =
    Online.Engine.chunks ~interval_s ~epoch_intervals trace
  in
  List.iter
    (fun chunk ->
      let e = Online.Engine.feed engine chunk in
      Printf.printf
        "epoch %d: intervals=%d events=%d (+%d) working_set=%d\n"
        e.Online.Engine.index e.Online.Engine.intervals
        e.Online.Engine.total_events e.Online.Engine.chunk_events
        e.Online.Engine.working_set;
      if e.Online.Engine.decisions = [] then
        Printf.printf "  (warm-up: no reads yet)\n"
      else begin
        List.iter
          (fun (cls, (r : Bounds.Pipeline.t)) ->
            if r.Bounds.Pipeline.feasible then
              Printf.printf "  bound %-28s %14.6f\n" cls
                r.Bounds.Pipeline.lower_bound
            else Printf.printf "  bound %-28s     infeasible\n" cls)
          e.Online.Engine.bounds;
        List.iter
          (fun (d : Online.Engine.decision) ->
            match d.Online.Engine.parameter with
            | None ->
              Printf.printf "  %-28s infeasible at every parameter\n"
                d.Online.Engine.strategy
            | Some p ->
              Printf.printf "  %-28s param=%-5d cost=%14.6f qos=%.5f%s\n"
                d.Online.Engine.strategy p
                (Option.get d.Online.Engine.cost)
                (Option.get d.Online.Engine.worst_qos)
                (match d.Online.Engine.regret with
                | Some r -> Printf.sprintf " regret=%14.6f" r
                | None -> ""))
          e.Online.Engine.decisions
      end;
      (* Wall-clock lives on stderr so service output stays byte-stable
         across hosts and runs. *)
      Printf.eprintf "epoch %d timing: search %.3fs solve %.3fs\n%!"
        e.Online.Engine.index e.Online.Engine.search_s
        e.Online.Engine.solve_s)
    chunks;
  let epochs = Online.Engine.epochs engine in
  let decided =
    List.fold_left
      (fun acc (e : Online.Engine.epoch) ->
        acc
        + List.length
            (List.filter
               (fun (d : Online.Engine.decision) ->
                 d.Online.Engine.parameter <> None)
               e.Online.Engine.decisions))
      0 epochs
  in
  let negative_regret =
    List.exists
      (fun (e : Online.Engine.epoch) ->
        List.exists
          (fun (d : Online.Engine.decision) ->
            match d.Online.Engine.regret with
            | Some r -> r < -1e-9
            | None -> false)
          e.Online.Engine.decisions)
      epochs
  in
  if negative_regret then begin
    incr violations;
    Printf.printf "NEGATIVE REGRET: a deployed cost undercut its class bound\n"
  end;
  Printf.printf "served %d epochs: %d deployments, %d bound solves\n%!"
    (List.length epochs) decided
    (Online.Engine.bound_solves engine)

(* --- command line ---------------------------------------------------------- *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.App))

let verbose_t =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Chatty solver logging.")

let quick_t =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use 3 QoS points instead of 5 (faster).")

(* Range-checked numeric flags: an out-of-range value is a usage error
   (exit 124), like a malformed one, instead of an exception mid-run or a
   run that checks nothing. *)
let ranged conv ~ok ~expect =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expect s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int =
  ranged Arg.int ~ok:(fun n -> n > 0) ~expect:"a positive integer"

let scale_t =
  let factor =
    ranged Arg.float
      ~ok:(fun x -> x > 0. && x <= 1.)
      ~expect:"a factor in (0, 1]"
  in
  Arg.(
    value & opt factor 0.1
    & info [ "scale" ] ~docv:"FACTOR"
        ~doc:"Workload scale; 1.0 is the paper's full size.")

let seed_t =
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let zeta_t =
  Arg.(
    value & opt float 10_000.
    & info [ "zeta" ] ~docv:"COST" ~doc:"Node-opening cost for fig3 phase 1.")

let jobs_t =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker processes for the sweep layers. 0 (the default) uses \
           the processor count the OCaml runtime reports; 1 forces the \
           sequential path. Results are identical at every setting.")

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each figure as CSV into $(docv).")

let faults_conv =
  let parse s =
    match Util.Faults.parse_result s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg (Util.Parse_error.to_string e))
  in
  let print ppf spec = Format.pp_print_string ppf (Util.Faults.to_string spec) in
  Arg.conv (parse, print)

let inject_t =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. \
           'seed=42,crash=0.2,diverge=0.1' or 'crash_every=3,stall=0.05'. \
           Injected faults exercise worker supervision and the solver \
           fallback chain without changing any reported number; \
           'ckill_after=N' exits with status 96 after the Nth journal \
           checkpoint, for $(b,--journal) kill-and-resume.")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Checkpoint each bound sweep into $(docv): an interrupted run \
           re-executed with the same arguments resumes from the journal \
           and produces identical output.")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per bound sweep. A governor apportions the \
           remaining budget across outstanding cells; cells that run out \
           of time stop at a solver checkpoint and keep their best \
           certified bound (the timing table's quality column records \
           which cells degraded). Unset: no clock is read and output is \
           byte-identical to an unbudgeted run.")

let cell_budget_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "cell-budget" ] ~docv:"SECONDS"
        ~doc:
          "Cap any single sweep cell's solver time, independently of \
           $(b,--deadline). Also bounds each deployed-heuristic search \
           point (its bisection returns the best feasible parameter found \
           so far).")

let certify_t =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "After each bound sweep, recheck every cell's certificate from \
           scratch: feasible cells must reproduce their lower bound from \
           the attached dual vector, infeasible cells must carry a \
           verified Farkas ray. Any failure makes the command exit \
           nonzero.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Record a structured trace (solver spans, sweep cells, worker \
           tasks) and write it to $(docv) as JSON lines. Worker spans \
           from every job merge into one trace, ordered by logical \
           counters, so the file is byte-identical at every $(b,--jobs) \
           setting (unless $(b,--profile) adds wall-clock attributes).")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE.json"
        ~doc:
          "Collect solver / pipeline / pool counters and write the final \
           registry snapshot to $(docv) as JSON. Also prints a per-sweep \
           summary of the counters that moved.")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable tracing and metrics with wall-clock attributes and \
           timing histograms (per-task wall clock, span durations). \
           Implies the per-sweep metrics summary; combine with \
           $(b,--trace) to keep the timed trace.")

let task_timeout_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Turn on the worker pool's timeout supervision for bound sweeps: \
           a cell with no result after $(docv) has its worker killed and \
           is retried on a fresh one, and a cell that times out on three \
           attempts fails the run. Unset (or non-positive), a stalled \
           cell is waited for.")

let setup_faults inject =
  let spec = Option.value inject ~default:Util.Faults.none in
  Util.Faults.install spec;
  if Util.Faults.active () then
    Logs.app (fun f ->
        f "fault injection active: %s" (Util.Faults.to_string spec))

let workload_t =
  let wconv =
    Arg.enum [ ("web", [ CS.Web ]); ("group", [ CS.Group ]);
               ("both", [ CS.Web; CS.Group ]) ]
  in
  Arg.(
    value & opt wconv [ CS.Web; CS.Group ]
    & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc:"web, group or both.")

let resolve_jobs jobs =
  if jobs <= 0 then Util.Parallel.available_cores () else jobs

(* Write the merged trace / metrics snapshot (no-op when neither --trace,
   --metrics nor --profile was given). *)
let flush_obs ~trace ~metrics =
  Obs.Sink.flush ();
  (match trace with
  | Some file -> Printf.printf "wrote trace %s\n%!" file
  | None -> ());
  match metrics with
  | Some file -> Printf.printf "wrote metrics %s\n%!" file
  | None -> ()

let run_figure f =
  let run verbose quick scale seed zeta csv_dir jobs inject journal_dir
      deadline cell_budget certify trace metrics profile task_timeout
      workloads =
    setup_logs verbose;
    setup_faults inject;
    setup_obs ~trace ~metrics ~profile;
    (* Non-positive budgets mean "no budget", matching sweep_classes —
       the overrun check must not treat them as already blown. *)
    let budget = function Some s when s > 0. -> s | _ -> infinity in
    let o =
      {
        jobs = resolve_jobs jobs;
        journal_dir;
        deadline_s = budget deadline;
        cell_budget_s = budget cell_budget;
        timeout_s =
          (match task_timeout with Some s when s > 0. -> Some s | _ -> None);
        certify;
        csv_dir;
      }
    in
    List.iter
      (fun w ->
        f o ~seed ~zeta (CS.make ~seed ~scale w) ~points:(qos_sweep quick))
      workloads;
    flush_obs ~trace ~metrics;
    if !violations > 0 then exit 1
  in
  Term.(
    const run $ verbose_t $ quick_t $ scale_t $ seed_t $ zeta_t $ csv_t
    $ jobs_t $ inject_t $ journal_t $ deadline_t $ cell_budget_t $ certify_t
    $ trace_t $ metrics_t $ profile_t $ task_timeout_t $ workload_t)

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Lower bounds per class vs QoS (Figure 1).")
    (run_figure (fun o ~seed:_ ~zeta:_ -> fig1 o))

let fig2_cmd =
  Cmd.v
    (Cmd.info "fig2" ~doc:"Deployed heuristics vs class bounds (Figure 2).")
    (run_figure (fun o ~seed:_ ~zeta:_ -> fig2 o))

let fig3_cmd =
  Cmd.v (Cmd.info "fig3" ~doc:"Deployment scenario bounds (Figure 3).")
    (run_figure (fun o ~seed:_ ~zeta -> fig3 o ~zeta))

let select_cmd =
  let run verbose scale seed trace metrics profile workloads =
    setup_logs verbose;
    setup_obs ~trace ~metrics ~profile;
    List.iter (fun w -> selection (CS.make ~seed ~scale w)) workloads;
    flush_obs ~trace ~metrics
  in
  Cmd.v
    (Cmd.info "select"
       ~doc:"Run the Section 6.1 selection methodology and print the ranking.")
    Term.(
      const run $ verbose_t $ scale_t $ seed_t $ trace_t $ metrics_t
      $ profile_t $ workload_t)

let baselines_cmd =
  let run verbose scale seed =
    setup_logs verbose;
    baselines ~scale ~seed ()
  in
  Cmd.v
    (Cmd.info "baselines"
       ~doc:"Replay Qiu et al.'s placement-strategy comparison (random vs \
             hotspot vs greedy) inside the MC-PERF cost model.")
    Term.(const run $ verbose_t $ scale_t $ seed_t)

let workload_cmd =
  let run verbose scale seed =
    setup_logs verbose;
    workload_profiles ~scale ~seed ()
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Profile the synthetic WEB/GROUP traces (popularity, site \
             shares, working sets, cold-miss floors).")
    Term.(const run $ verbose_t $ scale_t $ seed_t)

let ablation_cmd =
  let run verbose seed =
    setup_logs verbose;
    ablation ~seed ()
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Quantify the repo's own design choices (aggregation, restarts, \
             policies, the Theorem-3 refinement).")
    Term.(const run $ verbose_t $ seed_t)

let validate_cmd =
  let family_t =
    Arg.(
      value
      & opt
          (enum
             [ ("default", `Default); ("tree", `Tree); ("avail", `Avail) ])
          `Default
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Instance family to validate: $(b,default) cross-checks the \
             case-study instance; $(b,tree) runs the tree scenario family, \
             where the closest-allocation DP is the exact optimum and \
             every other producer must sandwich it; $(b,avail) checks the \
             correlated-failure sampler, the survivability evaluator and \
             the expected-cost scenario LP against goal-meeting \
             placements. Tree and avail output carries no wall clocks, so \
             runs compare byte-for-byte. Only the tree family reads \
             $(b,--jobs), and its output is identical at every setting.")
  in
  let count_t =
    Arg.(
      value & opt positive_int 10
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Tree-family instances, or avail-family sampled scenarios, to \
             validate.")
  in
  let run verbose seed family count jobs =
    setup_logs verbose;
    (match family with
    | `Default -> validate ~seed ()
    | `Tree -> validate_tree ~seed ~count ~jobs:(resolve_jobs jobs) ()
    | `Avail -> validate_avail ~seed ~count ());
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-check all bound producers (simplex, PDHG, Lagrangian, exact \
          IP, tree DP, rounding) on small instances; exits nonzero on any \
          violated bound ordering.")
    Term.(const run $ verbose_t $ seed_t $ family_t $ count_t $ jobs_t)

let serve_cmd =
  let trace_file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Replay a trace file (requires $(b,--topo)). Without it the \
             synthetic case-study workload of $(b,-w) is streamed.")
  in
  let topo_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "topo" ] ~docv:"FILE" ~doc:"Topology file for $(b,--trace-file).")
  in
  let one_workload_t =
    Arg.(
      value
      & opt (enum [ ("web", CS.Web); ("group", CS.Group) ]) CS.Web
      & info [ "workload"; "w" ] ~docv:"WORKLOAD"
          ~doc:"Synthetic workload to stream: web or group.")
  in
  let intervals_t =
    let max = Mcperf.Spec.max_intervals in
    let count =
      ranged Arg.int
        ~ok:(fun n -> n >= 1 && n <= max)
        ~expect:(Printf.sprintf "an interval count in 1..%d" max)
    in
    Arg.(
      value & opt count 24
      & info [ "intervals" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Evaluation intervals covering the whole trace horizon \
                (at most %d, the cost model's limit)."
               max))
  in
  let epoch_t =
    Arg.(
      value & opt positive_int 6
      & info [ "epoch-intervals" ] ~docv:"K"
          ~doc:"Intervals ingested per re-placement epoch.")
  in
  (* Exactly the goal values [Mcperf.Spec.make] accepts; NaN fails both
     comparisons. *)
  let fraction_t =
    let fraction =
      ranged Arg.float
        ~ok:(fun q -> q >= 0. && q <= 1.)
        ~expect:"a fraction in [0, 1]"
    in
    Arg.(
      value & opt fraction 0.95
      & info [ "fraction" ] ~docv:"Q" ~doc:"QoS fraction of the goal.")
  in
  let tlat_t =
    let threshold =
      ranged Arg.float ~ok:(fun ms -> ms >= 0.) ~expect:"a latency >= 0"
    in
    Arg.(
      value & opt threshold 150.
      & info [ "tlat" ] ~docv:"MS" ~doc:"QoS latency threshold, ms.")
  in
  let strategies_t =
    (* A name the registry does not know is a usage error. *)
    let strategy =
      let parse n =
        match Heuristics.Registry.find n with
        | Some f -> Ok (n, f)
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown strategy %S (known: %s)" n
                 (String.concat ", " (Heuristics.Registry.names ()))))
      in
      Arg.conv (parse, fun ppf (n, _) -> Format.pp_print_string ppf n)
    in
    Arg.(
      value
      & opt (list strategy) []
      & info [ "strategies" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated strategy names from the registry (default: one \
             representative per major class).")
  in
  (* Either flag without the other is a usage error, found before
     anything runs. *)
  let source_t =
    let pair trace_file topo w scale seed =
      match (trace_file, topo) with
      | Some tf, Some topo -> `Ok (`Replay (tf, topo))
      | Some _, None | None, Some _ ->
        `Error (true, "--trace-file and --topo go together")
      | None, None -> `Ok (`Synthetic (w, scale, seed))
    in
    Term.(
      ret
        (const pair $ trace_file_t $ topo_t $ one_workload_t $ scale_t
       $ seed_t))
  in
  let run verbose source intervals epoch_intervals fraction tlat strategies
      trace metrics profile =
    setup_logs verbose;
    setup_obs ~trace ~metrics ~profile;
    let loaded =
      match source with
      | `Synthetic (w, scale, seed) ->
        let cs = CS.make ~seed ~scale w in
        Ok (cs.CS.system, cs.CS.trace, CS.workload_name w)
      | `Replay (trace_file, topo_file) -> load_replay ~trace_file ~topo_file
    in
    match loaded with
    | Error msg ->
      prerr_endline ("serve: " ^ msg);
      exit Cmd.Exit.some_error
    | Ok (system, trace, label) ->
      serve ~system ~trace ~label ~intervals ~epoch_intervals ~fraction
        ~tlat_ms:tlat ~strategies ();
      Obs.Sink.flush ();
      if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the epoch-driven online placement service: stream a trace in \
          epoch-sized chunks, re-deploy every registered strategy per \
          epoch, bound each class on everything observed so far, and \
          report per-epoch regret (deployed cost minus class bound).")
    Term.(
      const run $ verbose_t $ source_t $ intervals_t $ epoch_t $ fraction_t
      $ tlat_t $ strategies_t $ trace_t $ metrics_t $ profile_t)

let figtree_cmd =
  let run verbose seed csv_dir jobs =
    setup_logs verbose;
    show_figure
      {
        jobs = resolve_jobs jobs;
        journal_dir = None;
        deadline_s = infinity;
        cell_budget_s = infinity;
        timeout_s = None;
        certify = false;
        csv_dir;
      }
      (Figure.figtree ~seed);
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "figtree"
       ~doc:
         "Tree-network figure: the exact DP optimum (general class) vs the \
          caching-class bound vs the proportional heuristic's deployed \
          cost, across QoS goals on a random tree.")
    Term.(const run $ verbose_t $ seed_t $ csv_t $ jobs_t)

let figavail_cmd =
  let scenarios_t =
    Arg.(
      value & opt positive_int 32
      & info [ "scenarios" ] ~docv:"N"
          ~doc:"Sampled correlated-failure scenarios (default 32).")
  in
  let run verbose seed scale scenarios jobs workloads =
    setup_logs verbose;
    List.iter
      (fun w -> figavail ~seed ~scale ~scenarios ~jobs:(resolve_jobs jobs) w)
      workloads;
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "figavail"
       ~doc:
         "Availability figure: every deployed heuristic re-priced under \
          sampled correlated-failure scenarios, ranked by fragility \
          (expected degraded-cost blow-up), with worst-case k-failure \
          survival per failure group and a degradation replay over a \
          failure timeline — against the class-level expected-cost \
          scenario LP bound. Deterministic stdout (timings on stderr).")
    Term.(
      const run $ verbose_t $ seed_t $ scale_t $ scenarios_t $ jobs_t
      $ workload_t)

let scale_cmd =
  let run verbose seed =
    setup_logs verbose;
    scale_experiment ~seed ()
  in
  Cmd.v
    (Cmd.info "scale" ~doc:"Solver wall-clock vs instance size (Section 5).")
    Term.(const run $ verbose_t $ seed_t)

let figscale_cmd =
  let objects_t =
    Arg.(
      value & opt positive_int 10_000
      & info [ "objects" ] ~docv:"N"
          ~doc:"Objects in the CDN scale scenario (default 10000).")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also cross-check the decomposition on a small instance: \
             Lagrangian dual below the exact LP optimum, and the bundled \
             bound bit-identical to the forced-unbundled one. Exits \
             nonzero on any violation.")
  in
  let run verbose seed objects check =
    setup_logs verbose;
    figscale ~seed ~objects ~check ();
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "figscale"
       ~doc:
         "Fig2-style QoS sweep on the 200+-node / 10k-object CDN scale \
          family via the bundled Lagrangian decomposition. Deterministic \
          stdout (timings on stderr), so output can be compared \
          byte-for-byte across runs.")
    Term.(const run $ verbose_t $ seed_t $ objects_t $ check_t)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (fig1, fig2, fig3, scale).")
    (run_figure (fun o ~seed ~zeta cs ~points ->
         fig1 o cs ~points;
         fig2 o cs ~points;
         fig3 o ~zeta cs ~points;
         selection cs;
         if cs.CS.workload = CS.Web then scale_experiment ~seed ()))

let main =
  Cmd.group
    (Cmd.info "experiments" ~version:"1.0"
       ~doc:
         "Regenerate the evaluation of 'Choosing Replica Placement \
          Heuristics for Wide-Area Systems' (ICDCS 2004).")
    [
      fig1_cmd; fig2_cmd; fig3_cmd; figtree_cmd; figscale_cmd; figavail_cmd;
      select_cmd; scale_cmd;
      validate_cmd; serve_cmd; ablation_cmd; workload_cmd; baselines_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
