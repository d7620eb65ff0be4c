type solver =
  | Auto
  | Exact_simplex
  | First_order of Lp.Pdhg.options

type solve_path =
  | Path_presolve
  | Path_tree_dp
  | Path_simplex
  | Path_pdhg
  | Path_pdhg_retry
  | Path_infeasible

let all_paths =
  [
    Path_presolve;
    Path_tree_dp;
    Path_simplex;
    Path_pdhg;
    Path_pdhg_retry;
    Path_infeasible;
  ]

let path_label = function
  | Path_presolve -> "presolve"
  | Path_tree_dp -> "tree-dp"
  | Path_simplex -> "simplex"
  | Path_pdhg -> "pdhg"
  | Path_pdhg_retry -> "pdhg-retry"
  | Path_infeasible -> "infeasible"

type quality = Exact | Converged | Iter_budget | Time_budget

let all_qualities = [ Exact; Converged; Iter_budget; Time_budget ]

let quality_label = function
  | Exact -> "exact"
  | Converged -> "converged"
  | Iter_budget -> "iter-budget"
  | Time_budget -> "time-budget"

type certificate =
  | Dual of float array
  | Farkas of float array

type lp = {
  point : float array;
  bound : float;
  iterations : int;
  path : solve_path;
  quality : quality;
  rel_gap : float;
  dual : float array;
}

type t = {
  class_name : string;
  feasible : bool;
  lower_bound : float;
  rounded : Rounding.Round.result option;
  gap : float option;
  exact : bool;
  lp_iterations : int;
  vars : int;
  rows : int;
  max_feasible_qos : float;
  solve_path : solve_path;
  quality : quality;
  rel_gap : float;
  certificate : certificate option;
}

let src = Logs.Src.create "bounds" ~doc:"lower-bound pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* Observability instruments: one counter per fallback-chain leg, so the
   metrics snapshot shows at a glance how cells were obtained. *)
let m_paths =
  lazy
    (List.map
       (fun p -> (p, Obs.Metrics.counter ("pipeline.path." ^ path_label p)))
       all_paths)

let count_path p = Obs.Metrics.incr (List.assoc p (Lazy.force m_paths))
let m_cells = lazy (Obs.Metrics.counter "pipeline.cells")
let m_fallbacks = lazy (Obs.Metrics.counter "pipeline.fallback_hops")

let default_pdhg_options =
  { Lp.Pdhg.default_options with max_iters = 40_000; rel_tol = 1e-4 }

(* The one solver choice, [None] for the dense simplex: [Auto] takes it
   while both dimensions stay within 260, where it is exact and fast, and
   PDHG with the MC-PERF options beyond. *)
let pdhg_options solver ~vars ~rows =
  match solver with
  | Exact_simplex -> None
  | First_order options -> Some options
  | Auto ->
    if vars <= 260 && rows <= 260 then None else Some default_pdhg_options

let infeasible_result ?ray cls worst_qos =
  {
    class_name = cls.Mcperf.Classes.name;
    feasible = false;
    lower_bound = infinity;
    rounded = None;
    gap = None;
    exact = true;
    lp_iterations = 0;
    vars = 0;
    rows = 0;
    max_feasible_qos = worst_qos;
    solve_path = Path_infeasible;
    quality = Exact;
    rel_gap = 0.;
    certificate = Option.map (fun r -> Farkas r) ray;
  }

(* A verified Farkas ray for an infeasible model, expressed on the
   Ge-normalized *full* model problem (so verification needs no presolve
   replay). The single-row scan covers the MC-PERF pattern — a QoS row
   demanding more coverage than its variables' box allows — without
   running a solver; the phase-1 simplex ray is the completeness fallback
   at exact-solver scale. Only rays accepted by [check_farkas] are
   attached. *)
let farkas_of problem =
  let norm = Lp.Problem.normalize_ge problem in
  let verified ray =
    if Lp.Certificate.check_farkas norm ~ray then Some ray else None
  in
  match Lp.Certificate.row_farkas norm with
  | Some ray -> verified ray
  | None -> (
    match
      pdhg_options Auto ~vars:(Lp.Problem.nvars norm)
        ~rows:(Lp.Problem.nrows norm)
    with
    | None -> (
      match Lp.Simplex.solve_certified norm with
      | Lp.Simplex.Cert_infeasible { ray } -> verified ray
      | Lp.Simplex.Cert_optimal _ | Lp.Simplex.Cert_unbounded -> None)
    | Some _ -> None)

(* --- the LP leg ---------------------------------------------------------- *)

(* One solve of an LP relaxation, shared by the cell chain
   ([compute_cell] below), the scenario LP and the deployment planner:
   presolve, pick the solver on the *original* dimensions (so the choice
   is stable across reductions), solve the reduced problem from a cold
   start, and map the point and the certified bound back through
   [restore]/[offset]. [dual] certifies the bound on the Ge-normalized
   presolve-reduced problem, the space it was computed in; [certify]
   replays the deterministic presolve to verify it. An infeasible LP is
   [Error] with a verified Farkas ray on the normalized full problem,
   when one is found.

   The PDHG leg is supervised. A solve is *healthy* when every reported
   quantity is finite and an independent re-evaluation of
   [Certificate.dual_bound] at the best dual iterate reproduces the bound
   the solver claims — anything else (NaN-poisoned inputs, a diverged
   iterate, a cap-hit that produced no usable certificate) triggers one
   clean cold re-solve of the unpoisoned problem. The first attempt and
   the clean retry both start cold on the same reduced problem, so
   whenever the input itself was sound the retry reproduces the primary
   attempt's iterates exactly and recovery is invisible in the results.
   A retry that is unhealthy too means the input itself is unsound, and
   the leg raises [Failure]. *)

(* Independent health check of a PDHG outcome: all reported scalars and
   the primal point finite, and the certified bound reproducible from the
   dual iterate alone. [Certificate.dual_bound] is valid for *any* y, so
   a finite, matching re-evaluation means the bound stands regardless of
   what happened to the iterates. *)
let pdhg_healthy prep (out : Lp.Pdhg.outcome) =
  Float.is_finite out.Lp.Pdhg.best_bound
  && Float.is_finite out.Lp.Pdhg.primal_objective
  && Float.is_finite out.Lp.Pdhg.primal_infeasibility
  && Array.for_all Float.is_finite out.Lp.Pdhg.x
  &&
  let recheck =
    Lp.Certificate.dual_bound
      (Lp.Pdhg.prepared_problem prep)
      ~y:out.Lp.Pdhg.best_y
  in
  Float.is_finite recheck
  && Float.abs (recheck -. out.Lp.Pdhg.best_bound)
     <= 1e-9 *. (1. +. Float.abs out.Lp.Pdhg.best_bound)

let solve_relaxation_raw ?(solver = Auto) ?(inject_nan = false) ?deadline_s
    problem =
  let vars = Lp.Problem.nvars problem and rows = Lp.Problem.nrows problem in
  let pre = Lp.Presolve.run problem in
  let solved ?(iterations = 0) ?(quality = Exact) ?(rel_gap = 0.) path x bound
      dual =
    Ok
      {
        point = pre.Lp.Presolve.restore x;
        bound;
        iterations;
        path;
        quality;
        rel_gap;
        dual;
      }
  in
  match pre.Lp.Presolve.status with
  | `Infeasible -> Error (farkas_of problem)
  | `Unchanged | `Reduced ->
    let red = pre.Lp.Presolve.reduced in
    if Lp.Problem.nvars red = 0 then
      (* Presolve solved the whole LP: the fixed assignment is the unique
         feasible point, hence optimal. The all-zero dual vector is its
         certificate — the reduced problem has no variables left, so the
         dual bound is 0 and the recorded bound is pure offset. *)
      solved Path_presolve [||] pre.Lp.Presolve.offset
        (Array.make (Lp.Problem.nrows red) 0.)
    else begin
      match pdhg_options solver ~vars ~rows with
      | None -> (
        match Lp.Simplex.solve_certified red with
        | Lp.Simplex.Cert_optimal { x; objective; dual } ->
          solved Path_simplex x (objective +. pre.Lp.Presolve.offset) dual
        | Lp.Simplex.Cert_infeasible _ ->
          (* The simplex ray lives in reduced-row space; re-derive one on
             the full problem so the certificate verifies without a
             presolve replay. *)
          Error (farkas_of problem)
        | Lp.Simplex.Cert_unbounded ->
          invalid_arg "Bounds.Pipeline: unbounded MC-PERF relaxation")
      | Some options -> begin
        (* The sweep governor's per-cell budget caps the solver deadline;
           an already-exhausted budget still runs the checkpointed first
           block, so every cell returns some valid bound. *)
        let options =
          match deadline_s with
          | Some d when Float.is_finite d ->
            {
              options with
              Lp.Pdhg.deadline_s =
                Float.min options.Lp.Pdhg.deadline_s (Float.max 0. d);
            }
          | Some _ | None -> options
        in
        let attempt ~poisoned =
          let target =
            if poisoned && Lp.Problem.nrows red > 0 then
              Lp.Problem.with_rhs red [ (0, Float.nan) ]
            else red
          in
          let prep = Lp.Pdhg.prepare target in
          (prep, Lp.Pdhg.solve_prepared ~options prep)
        in
        let accept path (out : Lp.Pdhg.outcome) =
          solved ~iterations:out.Lp.Pdhg.iterations
            ~quality:
              (match out.Lp.Pdhg.stop with
              | Lp.Pdhg.Converged -> Converged
              | Lp.Pdhg.Deadline -> Time_budget
              | Lp.Pdhg.Budget -> Iter_budget)
            ~rel_gap:out.Lp.Pdhg.rel_gap path out.Lp.Pdhg.x
            (out.Lp.Pdhg.best_bound +. pre.Lp.Presolve.offset)
            out.Lp.Pdhg.best_y
        in
        let report_unhealthy cause (out : Lp.Pdhg.outcome) =
          if Obs.Config.tracing () then
            Obs.Trace.event "pipeline.pdhg_unhealthy"
              ~attrs:
                [
                  ("cause", Obs.Trace.Str cause);
                  ("bound", Obs.Trace.Float out.Lp.Pdhg.best_bound);
                  ("pinf", Obs.Trace.Float out.Lp.Pdhg.primal_infeasibility);
                  ("iters", Obs.Trace.Int out.Lp.Pdhg.iterations);
                ];
          Printf.sprintf "bound %g, infeas %g, %d iters" out.Lp.Pdhg.best_bound
            out.Lp.Pdhg.primal_infeasibility out.Lp.Pdhg.iterations
        in
        let prep1, out1 = attempt ~poisoned:inject_nan in
        if pdhg_healthy prep1 out1 then accept Path_pdhg out1
        else begin
          Obs.Metrics.incr (Lazy.force m_fallbacks);
          let why = report_unhealthy "primary" out1 in
          Log.warn (fun f ->
              f "pdhg solve unhealthy (%s): retrying cold on a clean rebuild"
                why);
          let prep2, out2 = attempt ~poisoned:false in
          if pdhg_healthy prep2 out2 then accept Path_pdhg_retry out2
          else
            failwith
              (Printf.sprintf
                 "Bounds.Pipeline: the %s leg is unhealthy too (%s): the LP \
                  is unsound"
                 (path_label Path_pdhg_retry)
                 (report_unhealthy "retry" out2))
        end
      end
    end

(* Instrumented entry point: a span around the whole leg, tagged with the
   path that finally produced the bound. The span and path counters never
   touch the numbers — the raw leg above is the entire computation. *)
let solve_relaxation ?solver ?inject_nan ?deadline_s problem =
  let sp =
    Obs.Trace.span_begin "pipeline.solve_relaxation"
      ~attrs:
        [
          ("vars", Obs.Trace.Int (Lp.Problem.nvars problem));
          ("rows", Obs.Trace.Int (Lp.Problem.nrows problem));
        ]
  in
  match
    solve_relaxation_raw ?solver ?inject_nan ?deadline_s problem
  with
  | r ->
    let path = match r with Ok lp -> lp.path | Error _ -> Path_infeasible in
    count_path path;
    Obs.Trace.span_end sp ~attrs:[ ("path", Obs.Trace.Str (path_label path)) ];
    r
  | exception e ->
    Obs.Trace.span_end sp ~attrs:[ ("path", Obs.Trace.Str "exception") ];
    raise e

let solve_lp ?solver problem = solve_relaxation ?solver problem

(* Turn a feasible relaxation outcome into a pipeline result: round the
   fractional point, evaluate the integral placement, report the gap. *)
let finish ~round model cls worst_qos (lp : lp) =
  let problem = model.Mcperf.Model.problem in
  let lower_bound = lp.bound +. model.Mcperf.Model.objective_offset in
  let rounded =
    (* Rounding a heavily truncated fractional point is the slowest stage
       of a degraded cell (the greedy repair has far more violations to
       fix), and unlike the solver it has no checkpoints. When the cell's
       budget is already spent, skip it: the certified bound is this
       cell's deliverable; the rounded column degrades to "-".
       [task_expired] never reads the clock on unbudgeted runs. *)
    if Util.Parallel.task_expired () then begin
      Log.info (fun f ->
          f "budget spent for class %s: skipping rounding"
            cls.Mcperf.Classes.name);
      None
    end
    else
      match round model ~x:lp.point with
      | Ok r -> Some r
      | Error msg ->
        Log.warn (fun f ->
            f "rounding failed for class %s: %s" cls.Mcperf.Classes.name msg);
        None
  in
  let gap =
    match rounded with
    | Some r when r.Rounding.Round.evaluation.Mcperf.Costing.total > 0. ->
      Some
        ((r.Rounding.Round.evaluation.Mcperf.Costing.total -. lower_bound)
        /. r.Rounding.Round.evaluation.Mcperf.Costing.total)
    | Some _ | None -> None
  in
  {
    class_name = cls.Mcperf.Classes.name;
    feasible = true;
    lower_bound;
    rounded;
    gap;
    exact = lp.quality = Exact;
    lp_iterations = lp.iterations;
    vars = Lp.Problem.nvars problem;
    rows = Lp.Problem.nrows problem;
    max_feasible_qos = worst_qos;
    solve_path = lp.path;
    quality = lp.quality;
    rel_gap = lp.rel_gap;
    certificate = Some (Dual lp.dual);
  }

(* --- exact tree producer ------------------------------------------------- *)

(* Third bound producer: on tree instances where {!Tree_dp.of_spec}
   proves the closest-allocation DP exact, the cell's lower bound and its
   rounded solution are the same integer optimum and the gap is zero by
   construction — no LP is built at all. Belt and braces before claiming
   exactness: the DP placement is re-evaluated through [Costing] (the
   same arithmetic that judges heuristics and rounded LP points) and must
   meet the goal, respect permissions, and reproduce the DP's own cost;
   any disagreement — e.g. a demand sitting exactly on the QoS threshold
   where accumulated path sums and the Dijkstra latency matrix could
   round differently — silently falls back to the LP chain. Eligibility
   is a pure function of (spec, class, fraction, placeable), so sweeps
   stay byte-identical at every [--jobs]. *)
let tree_cell ?placeable spec cls perm worst_qos =
  match Tree_dp.of_spec ?placeable spec cls with
  | Error reason ->
    Log.debug (fun f ->
        f "class %s: tree-dp ineligible (%s)" cls.Mcperf.Classes.name reason);
    None
  | Ok inst -> (
    match Tree_dp.solve inst with
    | Tree_dp.Unsatisfiable _ ->
      (* Let the LP chain certify infeasibility with a Farkas ray. *)
      None
    | Tree_dp.Optimal { cost; placement } ->
      let pl = Tree_dp.placement_of inst placement in
      let ev = Mcperf.Costing.evaluate perm pl in
      if
        ev.Mcperf.Costing.meets_goal
        && Mcperf.Costing.respects_permissions perm pl
        && Float.abs (ev.Mcperf.Costing.total -. cost)
           <= 1e-6 *. (1. +. Float.abs cost)
      then begin
        count_path Path_tree_dp;
        let lower_bound = ev.Mcperf.Costing.total in
        Some
          {
            class_name = cls.Mcperf.Classes.name;
            feasible = true;
            lower_bound;
            rounded =
              Some
                {
                  Rounding.Round.placement = pl;
                  evaluation = ev;
                  rounded_up = 0;
                  rounded_down = 0;
                  repaired = 0;
                };
            gap = (if lower_bound > 0. then Some 0. else None);
            exact = true;
            lp_iterations = 0;
            vars = 0;
            rows = 0;
            max_feasible_qos = worst_qos;
            solve_path = Path_tree_dp;
            quality = Exact;
            rel_gap = 0.;
            certificate = None;
          }
      end
      else begin
        Log.warn (fun f ->
            f
              "class %s: tree-dp solution failed Costing verification \
               (dp %g, evaluated %g, meets_goal %b): falling back to LP"
              cls.Mcperf.Classes.name cost ev.Mcperf.Costing.total
              ev.Mcperf.Costing.meets_goal);
        None
      end)

(* --- the cell chain ------------------------------------------------------ *)

(* The one cell chain behind every entry point: the permission oracle,
   the exact tree DP under [Auto], then the LP, built fresh and solved
   cold, with rounding chosen by the goal. [inject_nan] poisons the first
   PDHG attempt (the sweep's [diverge] fault); nothing else differs
   between callers, so every cell is a pure function of
   [(solver, placeable, spec, class)]. *)
let compute_cell ?(solver = Auto) ?placeable ?inject_nan spec cls =
  let perm = Mcperf.Permission.compute ?placeable spec cls in
  let worst_qos =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos _ ->
      Array.fold_left Float.min 1. (Mcperf.Permission.max_feasible_qos perm)
    | Mcperf.Spec.Avg_latency _ -> 1.
  in
  if not (Mcperf.Permission.feasible perm) then
    (* Even oracle-detected infeasibility gets a checkable witness: the
       model builder emits the unsatisfiable QoS rows verbatim, so a
       single-row Farkas scan certifies the ceiling independently. *)
    infeasible_result
      ?ray:(farkas_of (Mcperf.Model.build perm).Mcperf.Model.problem)
      cls worst_qos
  else
    let dp =
      match solver with
      | Auto -> tree_cell ?placeable spec cls perm worst_qos
      | Exact_simplex | First_order _ -> None
    in
    match dp with
    | Some cell -> cell
    | None -> (
      let model = Mcperf.Model.build perm in
      Log.info (fun f ->
          f "class %s: %a" cls.Mcperf.Classes.name Mcperf.Model.pp_stats model);
      let round =
        match spec.Mcperf.Spec.goal with
        | Mcperf.Spec.Qos _ -> Rounding.Round.round
        | Mcperf.Spec.Avg_latency _ -> Rounding.Round_avg.round
      in
      (* Remaining share of a budgeted sweep cell's time, installed by the
         pool from [budget_of] at dispatch. Unbudgeted runs never read the
         clock here, preserving byte-identical output at every [--jobs]. *)
      let deadline_s =
        let d = Util.Parallel.task_deadline () in
        if Float.is_finite d then Some (d -. Unix.gettimeofday ()) else None
      in
      match
        solve_relaxation ~solver ?inject_nan ?deadline_s
          model.Mcperf.Model.problem
      with
      | Error ray ->
        (* The LP disagreed with the coverage oracle: conservative report. *)
        infeasible_result ?ray cls worst_qos
      | Ok lp -> finish ~round model cls worst_qos lp)

let compute ?solver ?placeable spec cls =
  compute_cell ?solver ?placeable spec cls

let pp ppf t =
  if not t.feasible then
    Format.fprintf ppf "%-32s infeasible (max QoS %.5f)" t.class_name
      t.max_feasible_qos
  else
    Format.fprintf ppf "%-32s bound %10.1f%s%s" t.class_name t.lower_bound
      (match t.rounded with
      | Some r ->
        Printf.sprintf "  rounded %10.1f"
          r.Rounding.Round.evaluation.Mcperf.Costing.total
      | None -> "")
      (match t.gap with
      | Some g -> Printf.sprintf "  gap %5.1f%%" (100. *. g)
      | None -> "")

(* --- certificate recheck ------------------------------------------------- *)

(* Independent verification of a cell's certificate from nothing but the
   spec and the recorded result: rebuild the model the cell was solved
   from, replay the (deterministic) presolve, and re-evaluate the
   certificate arithmetic. A [Dual] witness must reproduce the recorded
   lower bound; a [Farkas] witness must pass [check_farkas] on the
   Ge-normalized full model problem. No solver runs — only the linear
   algebra of the certificate itself. *)
let certify ?placeable spec cls cell =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match cell.certificate with
  | None when cell.solve_path = Path_tree_dp ->
    (* Tree-DP cells carry no LP certificate; their witness is the DP
       itself. Replay it from scratch — eligibility, solve, and the
       Costing evaluation of the optimal placement must all reproduce the
       recorded bound. The DP is deterministic, so this is as strong as
       re-running the cell. *)
    if not cell.feasible then
      fail "%s: tree-dp path on an infeasible cell" cell.class_name
    else (
      match Tree_dp.of_spec ?placeable spec cls with
      | Error reason ->
        fail "%s: tree-dp replay ineligible: %s" cell.class_name reason
      | Ok inst -> (
        match Tree_dp.solve inst with
        | Tree_dp.Unsatisfiable { object_id } ->
          fail "%s: tree-dp replay unsatisfiable for object %d"
            cell.class_name object_id
        | Tree_dp.Optimal { cost = _; placement } ->
          let perm = Mcperf.Permission.compute ?placeable spec cls in
          let ev =
            Mcperf.Costing.evaluate perm (Tree_dp.placement_of inst placement)
          in
          if not ev.Mcperf.Costing.meets_goal then
            fail "%s: replayed tree-dp placement misses the goal"
              cell.class_name
          else if
            Float.abs (ev.Mcperf.Costing.total -. cell.lower_bound)
            <= 1e-6 *. (1. +. Float.abs cell.lower_bound)
          then Ok ()
          else
            fail
              "%s: replayed tree-dp optimum %.12g does not match recorded \
               %.12g"
              cell.class_name ev.Mcperf.Costing.total cell.lower_bound))
  | None -> fail "%s: no certificate attached" cell.class_name
  | Some (Farkas ray) ->
    if cell.feasible then
      fail "%s: Farkas certificate on a feasible cell" cell.class_name
    else begin
      let perm = Mcperf.Permission.compute ?placeable spec cls in
      let model = Mcperf.Model.build perm in
      let norm = Lp.Problem.normalize_ge model.Mcperf.Model.problem in
      if Array.length ray <> Lp.Problem.nrows norm then
        fail "%s: Farkas ray has %d entries, model has %d rows"
          cell.class_name (Array.length ray) (Lp.Problem.nrows norm)
      else if Lp.Certificate.check_farkas norm ~ray then Ok ()
      else fail "%s: Farkas ray rejected by check_farkas" cell.class_name
    end
  | Some (Dual y) ->
    if not cell.feasible then
      fail "%s: dual certificate on an infeasible cell" cell.class_name
    else begin
      let perm = Mcperf.Permission.compute ?placeable spec cls in
      if not (Mcperf.Permission.feasible perm) then
        fail "%s: rebuilt model is infeasible" cell.class_name
      else begin
        let model = Mcperf.Model.build perm in
        let pre = Lp.Presolve.run model.Mcperf.Model.problem in
        match pre.Lp.Presolve.status with
        | `Infeasible ->
          fail "%s: presolve replay reports infeasible" cell.class_name
        | `Unchanged | `Reduced ->
          let red = pre.Lp.Presolve.reduced in
          if Array.length y <> Lp.Problem.nrows red then
            fail "%s: dual has %d entries, reduced problem has %d rows"
              cell.class_name (Array.length y) (Lp.Problem.nrows red)
          else begin
            let bound =
              Lp.Certificate.dual_bound (Lp.Problem.normalize_ge red) ~y
              +. pre.Lp.Presolve.offset
              +. model.Mcperf.Model.objective_offset
            in
            if not (Float.is_finite bound) then
              fail "%s: replayed dual bound is not finite" cell.class_name
            else if
              Float.abs (bound -. cell.lower_bound)
              <= 1e-6 *. (1. +. Float.abs cell.lower_bound)
            then Ok ()
            else
              fail "%s: replayed dual bound %.12g does not match recorded \
                    %.12g"
                cell.class_name bound cell.lower_bound
          end
      end
    end

type sweep = {
  per_class : (string * (float * t) list) list;
  wall_s : float list list;
  elapsed_s : float;
  pool : Util.Parallel.pool_stats;
  resumed : int;
}

(* How many of [cells] carry each tag of [tags]. *)
let count_cells cells tag_of tags =
  List.map
    (fun tag ->
      (tag, List.length (List.filter (fun r -> tag_of r = tag) cells)))
    tags

let path_counts cells = count_cells cells (fun r -> r.solve_path) all_paths
let quality_counts cells = count_cells cells (fun r -> r.quality) all_qualities

(* --- checkpoint journal -------------------------------------------------- *)

(* A sweep journal is a plain text file: a header line carrying a
   fingerprint of the sweep's identity (the spec's system, demand and
   costs, the solver, the placement restriction, labels, class names,
   fractions, latency threshold and time budgets), then one line per
   completed cell. Each record is the MD5 digest of its payload followed
   by the hex-encoded marshaled [(key, (result, wall_s))] triple, so a
   torn tail from a crash is detected and dropped rather than crashing
   the loader. The whole file is rewritten to a temp path and [rename]d
   on every completion — the journal on disk is always a complete,
   self-consistent prefix of the sweep. It is deleted when the sweep
   finishes. *)

let cell_key label fraction = Printf.sprintf "%s|%.17g" label fraction

(* v2: cell payloads gained quality/certificate fields and the
   fingerprint covers the time-budget configuration, so a journal written
   under one budget is never replayed into a sweep running under another
   (degraded bounds must not masquerade as unconstrained ones).
   v3: [solve_path] gained the [Path_tree_dp] constructor, which shifts
   the Marshal tags of every later constructor — a v2 payload would
   deserialize into the wrong path, so v2 journals are discarded.
   v4: [solve_path] lost its simplex-rescue constructor, which moves
   [Path_infeasible]'s tag from 6 to 5 — a v3 payload could decode into a
   constructor that no longer exists, so v3 journals are discarded. *)
let journal_magic = "# replica-select sweep journal v4"

let sweep_fingerprint ~deadline_s ~cell_budget_s ~solver ?placeable ~tlat_ms
    ~fractions spec classes =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "tlat=%.17g" tlat_ms);
  Buffer.add_string b
    (Printf.sprintf ";deadline=%.17g;cell-budget=%.17g" deadline_s
       cell_budget_s);
  (* The instance and how it is solved: every cell is a function of
     these. The goal stays out — the sweep sets its fraction per cell and
     its threshold is [tlat] above. *)
  Buffer.add_string b
    (";instance="
    ^ Digest.to_hex
        (Digest.string
           (Marshal.to_string
              ( spec.Mcperf.Spec.system,
                spec.Mcperf.Spec.demand,
                spec.Mcperf.Spec.costs,
                solver,
                placeable )
              [ Marshal.No_sharing ])));
  List.iter (fun x -> Buffer.add_string b (Printf.sprintf ";%.17g" x)) fractions;
  List.iter
    (fun (label, cls) ->
      Buffer.add_string b
        (Printf.sprintf ";%s=%s" label cls.Mcperf.Classes.name))
    classes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then None
  else
    try
      Some
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))
    with Failure _ | Invalid_argument _ -> None

let journal_header fingerprint =
  Printf.sprintf "%s fingerprint=%s" journal_magic fingerprint

(* The completed cells of a journal: its valid prefix, and the first
   defect when the scan stopped early ([line] 0 means the whole file).
   A missing file is a fresh start, not a defect; a header that names
   another sweep yields no cells at all. *)
let load_journal ~fingerprint path =
  let defect line msg = Some { Util.Parse_error.file = path; line; msg } in
  if not (Sys.file_exists path) then ([], None)
  else
    match Util.Parse_error.read_file path with
    | Error e -> ([], Some e)
    | Ok text -> (
      (* The newline that ends the last line leaves one empty field. *)
      match String.split_on_char '\n' text with
      | [] | [ "" ] -> ([], defect 1 "missing journal header")
      | header :: records ->
        if not (String.equal header (journal_header fingerprint)) then
          ( [],
            defect 1
              "journal header does not match this sweep's fingerprint \
               (different instance, solver, classes, fractions, threshold or \
               journal version)" )
        else
          let record line =
            if String.trim line = "" then Error "empty record line"
            else
              match String.index_opt line ' ' with
              | None -> Error "missing digest separator"
              | Some j -> (
                let digest = String.sub line 0 j in
                match
                  string_of_hex
                    (String.sub line (j + 1) (String.length line - j - 1))
                with
                | None -> Error "payload is not hex"
                | Some payload ->
                  if
                    String.equal (Digest.to_hex (Digest.string payload)) digest
                  then
                    Ok (Marshal.from_string payload 0 : string * (t * float))
                  else Error "record digest mismatch")
          in
          let rec scan acc i = function
            | [] | [ "" ] -> (List.rev acc, None)
            | line :: rest -> (
              match record line with
              | Ok entry -> scan (entry :: acc) (i + 1) rest
              | Error msg ->
                (List.rev acc, defect i ("corrupt journal record: " ^ msg)))
          in
          scan [] 2 records)

let write_journal ~fingerprint path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (journal_header fingerprint);
  output_char oc '\n';
  List.iter
    (fun (key, cell, wall_s) ->
      let payload = Marshal.to_string ((key, (cell, wall_s)) : string * (t * float)) [] in
      output_string oc (Digest.to_hex (Digest.string payload));
      output_char oc ' ';
      output_string oc (hex_of_string payload);
      output_char oc '\n')
    entries;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

(* --- cell solver ---------------------------------------------------------- *)

(* The per-cell solve of [sweep_classes], run by the sequential path and
   by every fork worker alike: [compute] at the cell's fraction, so the
   sweep stays byte-identical however the cells are distributed. *)
let make_cell_solver ~solver ?placeable ~tlat_ms spec =
  let solve_at (key, _, cls, fraction) =
    (* Deterministic fault-injection points: both fire only inside a pool
       worker on a task's first attempt, so the supervisor's retry always
       completes the cell. *)
    Util.Faults.crash_point ~key;
    Util.Faults.stall_point ~key;
    compute_cell ~solver ?placeable
      ~inject_nan:(Util.Faults.diverge_requested ~key)
      { spec with Mcperf.Spec.goal = Mcperf.Spec.Qos { tlat_ms; fraction } }
      cls
  in
  (* Each cell gets a span in its task scope, tagged with the class and
     fraction it computed and how the solve went. *)
  fun ((_, label, _, fraction) as cell) ->
    Obs.Metrics.incr (Lazy.force m_cells);
    let sp =
      Obs.Trace.span_begin "pipeline.cell"
        ~attrs:
          [
            ("class", Obs.Trace.Str label);
            ("fraction", Obs.Trace.Float fraction);
          ]
    in
    match solve_at cell with
    | r ->
      Obs.Trace.span_end sp
        ~attrs:
          [
            ("path", Obs.Trace.Str (path_label r.solve_path));
            ("quality", Obs.Trace.Str (quality_label r.quality));
          ];
      r
    | exception e ->
      Obs.Trace.span_end sp;
      raise e

(* Sweep knobs as one record: build it from [default] with record
   syntax, so new knobs ride along without touching every caller. *)
module Sweep_config = struct
  type t = {
    jobs : int;
    solver : solver;
    placeable : bool array option;
    timeout_s : float option;
    deadline_s : float;
    cell_budget_s : float;
    journal : string option;
    progress : (completed:int -> total:int -> unit) option;
  }

  let default =
    {
      jobs = 1;
      solver = Auto;
      placeable = None;
      timeout_s = None;
      deadline_s = infinity;
      cell_budget_s = infinity;
      journal = None;
      progress = None;
    }
end

let sweep_classes (cfg : Sweep_config.t) spec ~fractions classes =
  let {
    Sweep_config.jobs;
    solver;
    placeable;
    timeout_s;
    deadline_s;
    cell_budget_s;
    journal;
    progress;
  } =
    cfg
  in
  let tlat_ms =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos { tlat_ms; _ } -> tlat_ms
    | Mcperf.Spec.Avg_latency _ ->
      invalid_arg "Pipeline.sweep_classes: requires a QoS goal"
  in
  let deadline_s = if deadline_s > 0. then deadline_s else infinity in
  let cell_budget_s = if cell_budget_s > 0. then cell_budget_s else infinity in
  let budgeted =
    Float.is_finite deadline_s || Float.is_finite cell_budget_s
  in
  let keyed_cells =
    List.concat_map
      (fun (label, cls) ->
        List.map
          (fun fraction -> (cell_key label fraction, label, cls, fraction))
          fractions)
      classes
  in
  let fingerprint =
    sweep_fingerprint ~deadline_s ~cell_budget_s ~solver ?placeable ~tlat_ms
      ~fractions spec classes
  in
  let done_tbl = Hashtbl.create 32 in
  Option.iter
    (fun path ->
      let entries, defect = load_journal ~fingerprint path in
      Option.iter
        (fun e ->
          Log.warn (fun f ->
              f "%s: keeping %d journaled cells" (Util.Parse_error.to_string e)
                (List.length entries)))
        defect;
      List.iter (fun (k, v) -> Hashtbl.replace done_tbl k v) entries)
    journal;
  let pending =
    List.filter (fun (k, _, _, _) -> not (Hashtbl.mem done_tbl k)) keyed_cells
  in
  let resumed = List.length keyed_cells - List.length pending in
  if resumed > 0 then
    Log.info (fun f ->
        f "resuming sweep: %d/%d cells restored from journal" resumed
          (List.length keyed_cells));
  let solve = make_cell_solver ~solver ?placeable ~tlat_ms spec in
  let total = List.length keyed_cells in
  let completed_count = ref resumed in
  let journal_entries =
    ref (Hashtbl.fold (fun k (c, w) acc -> (k, c, w) :: acc) done_tbl [])
  in
  let pending_arr = Array.of_list pending in
  let on_result i (res : t Util.Parallel.result) =
    let k, _, _, _ = pending_arr.(i) in
    incr completed_count;
    (match journal with
    | Some path ->
      journal_entries :=
        (k, res.Util.Parallel.value, res.Util.Parallel.wall_s)
        :: !journal_entries;
      write_journal ~fingerprint path !journal_entries;
      (* Injected coordinator death, placed *after* the checkpoint hits
         disk: the journal is a complete prefix when we die, so a re-run
         resumes exactly the remaining cells. [nth] counts checkpoints
         written by this run (resumed cells never re-checkpoint). *)
      Util.Faults.coordinator_kill_point ~nth:(!completed_count - resumed)
    | None -> ());
    match progress with
    | Some f -> f ~completed:!completed_count ~total
    | None -> ()
  in
  let sweep_sp =
    Obs.Trace.span_begin "pipeline.sweep"
      ~attrs:
        [
          ("classes", Obs.Trace.Int (List.length classes));
          ("fractions", Obs.Trace.Int (List.length fractions));
          ("cells", Obs.Trace.Int total);
          ("resumed", Obs.Trace.Int resumed);
        ]
  in
  let t0 = Unix.gettimeofday () in
  (* Time governor: apportion what is left of the global deadline across
     the cells still outstanding. A cell's share is
       min(cell cap, remaining, remaining * eff_jobs / cells_left)
     — with [eff_jobs] concurrent workers, [cells_left] cells share
     [remaining] wall-clock at [eff_jobs] cells a time. Re-evaluated at
     every dispatch (so cells that finish early donate their slack to the
     rest) and clamped at 0 so late cells still run their first
     checkpointed block and return a valid, if loose, bound. Unbudgeted
     sweeps pass no [budget_of] at all: no clocks, no behavior change. *)
  let budget_of =
    if not budgeted then None
    else begin
      let eff_jobs = max 1 (min jobs (List.length pending)) in
      Some
        (fun _index ->
          let remaining = deadline_s -. (Unix.gettimeofday () -. t0) in
          let cells_left =
            max 1 (List.length pending - (!completed_count - resumed))
          in
          let share =
            remaining *. float_of_int eff_jobs /. float_of_int cells_left
          in
          Float.max 0. (Float.min cell_budget_s (Float.min remaining share)))
    end
  in
  let outcomes =
    Util.Parallel.map ~jobs ?timeout_s ?budget_of ~on_result ~f:solve pending
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Obs.Trace.span_end sweep_sp
    ~attrs:[ ("wall_elapsed_s", Obs.Trace.Float elapsed_s) ];
  (match journal with
  | Some path ->
    if Sys.file_exists path then Sys.remove path;
    let tmp = path ^ ".tmp" in
    if Sys.file_exists tmp then Sys.remove tmp
  | None -> ());
  let result_tbl : (string, t * float) Hashtbl.t = Hashtbl.create total in
  Hashtbl.iter (fun k v -> Hashtbl.replace result_tbl k v) done_tbl;
  List.iter2
    (fun (k, _, _, _) (o : t Util.Parallel.result) ->
      Hashtbl.replace result_tbl k
        (o.Util.Parallel.value, o.Util.Parallel.wall_s))
    pending outcomes;
  let lookup label fraction = Hashtbl.find result_tbl (cell_key label fraction) in
  let per_class =
    List.map
      (fun (label, _) ->
        (label, List.map (fun q -> (q, fst (lookup label q))) fractions))
      classes
  in
  {
    per_class;
    wall_s =
      List.map
        (fun (label, _) -> List.map (fun q -> snd (lookup label q)) fractions)
        classes;
    elapsed_s;
    pool = Util.Parallel.last_pool_stats ();
    resumed;
  }
