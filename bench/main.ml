(* Bechamel micro/meso-benchmarks: one group per paper artefact (Figures
   1-3, the Section 5 scale discussion) plus the substrate hot paths.

   These run each piece at a reduced scale so the whole suite finishes in
   a couple of minutes; `bin/experiments.exe` regenerates the figures at
   full case-study scale. *)

open Bechamel
open Toolkit

module CS = Replica_select.Case_study

(* Shared fixtures, built once (fixture construction is excluded from the
   measured spans; each Test.make closure only runs the measured piece). *)

let web = lazy (CS.make ~nodes:10 ~scale:0.02 ~intervals:12 CS.Web)
let group = lazy (CS.make ~nodes:10 ~scale:0.01 ~intervals:12 CS.Group)

let bound_once cs cls =
  let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
  ignore (Bounds.Pipeline.compute spec cls)

(* --- Figure 1: one class bound per benchmark --------------------------- *)

let fig1_tests =
  let t name cls =
    Test.make ~name (Staged.stage (fun () -> bound_once (Lazy.force web) cls))
  in
  Test.make_grouped ~name:"fig1"
    [
      t "web-general" Mcperf.Classes.general;
      t "web-storage-constrained" Mcperf.Classes.storage_constrained;
      t "web-replica-constrained" Mcperf.Classes.replica_constrained_uniform;
      Test.make ~name:"group-general"
        (Staged.stage (fun () ->
             bound_once (Lazy.force group) Mcperf.Classes.general));
    ]

(* --- Figure 2: deployed heuristics ------------------------------------- *)

(* One strategy verdict at a fixed provisioning parameter: a single
   place-and-price (or cache simulation) without the minimal-parameter
   search around it. *)
let assess_at ?trace factory spec parameter =
  let module S = Heuristics.Strategy in
  S.assess
    (S.observe
       (factory (S.Context.with_parameter (S.Context.of_spec spec) parameter))
       (S.delta_of_spec ?trace spec))

let fig2_tests =
  Test.make_grouped ~name:"fig2"
    [
      Test.make ~name:"web-greedy-global-place"
        (Staged.stage (fun () ->
             let cs = Lazy.force web in
             let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:false () in
             ignore (assess_at Heuristics.Greedy_global.strategy spec 10)));
      Test.make ~name:"group-greedy-replica-place"
        (Staged.stage (fun () ->
             let cs = Lazy.force group in
             let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:false () in
             ignore (assess_at Heuristics.Greedy_replica.strategy spec 2)));
      Test.make ~name:"web-lru-simulation"
        (Staged.stage (fun () ->
             let cs = Lazy.force web in
             let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:false () in
             ignore
               (assess_at ~trace:cs.CS.trace Heuristics.Cache_strategy.lru spec
                  20)));
      Test.make ~name:"group-coop-cache-simulation"
        (Staged.stage (fun () ->
             let cs = Lazy.force group in
             let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:false () in
             ignore
               (assess_at ~trace:cs.CS.trace
                  Heuristics.Cache_strategy.cooperative spec 20)));
    ]

(* --- Figure 3: deployment planning -------------------------------------- *)

let fig3_tests =
  Test.make_grouped ~name:"fig3"
    [
      Test.make ~name:"group-plan-deployment"
        (Staged.stage (fun () ->
             let cs = Lazy.force group in
             let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
             ignore
               (Replica_select.Methodology.plan_deployment ~zeta:1_000. spec)));
    ]

(* --- Section 5: solver scale --------------------------------------------- *)

let scale_tests =
  let solve_at scale =
    let cs = CS.make ~nodes:10 ~scale ~intervals:12 CS.Web in
    let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
    let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
    let model = Mcperf.Model.build perm in
    fun () ->
      ignore
        (Lp.Pdhg.solve
           ~options:{ Lp.Pdhg.default_options with max_iters = 2_000 }
           model.Mcperf.Model.problem)
  in
  Test.make_grouped ~name:"scale"
    [
      Test.make ~name:"pdhg-2k-iters-scale-0.01" (Staged.stage (solve_at 0.01));
      Test.make ~name:"pdhg-2k-iters-scale-0.02" (Staged.stage (solve_at 0.02));
    ]

(* --- substrate hot paths --------------------------------------------------- *)

let substrate_tests =
  let rng = Util.Prng.create ~seed:1 in
  let g20 =
    Topology.Generate.as_like ~rng ~nodes:20
      ~latency:Topology.Generate.default_hop_latency ()
  in
  let small_lp =
    let b = Lp.Problem.Builder.create () in
    for _ = 1 to 30 do
      ignore (Lp.Problem.Builder.add_var b ~lo:0. ~hi:10. ~obj:1. ())
    done;
    for i = 0 to 19 do
      Lp.Problem.Builder.add_row b Lp.Problem.Ge ~rhs:2.
        [ (i, 1.); (i + 5, 1.); ((i + 11) mod 30, 0.5) ]
    done;
    Lp.Problem.Builder.build b
  in
  let round_model =
    lazy
      (let cs = Lazy.force web in
       let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
       let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
       let model = Mcperf.Model.build perm in
       let out =
         Lp.Pdhg.solve
           ~options:{ Lp.Pdhg.default_options with max_iters = 4_000 }
           model.Mcperf.Model.problem
       in
       (model, out.Lp.Pdhg.x))
  in
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"dijkstra-all-pairs-20"
        (Staged.stage (fun () -> ignore (Topology.Shortest_path.all_pairs g20)));
      Test.make ~name:"simplex-30x20"
        (Staged.stage (fun () -> ignore (Lp.Simplex.solve small_lp)));
      Test.make ~name:"zipf-fit-1000"
        (Staged.stage (fun () ->
             ignore
               (Workload.Zipf.fit_mandelbrot ~n:1000 ~total:300_000.
                  ~max_count:36_000. ~min_count:1.)));
      Test.make ~name:"rounding-web-0.02"
        (Staged.stage (fun () ->
             let model, x = Lazy.force round_model in
             ignore (Rounding.Round.round model ~x)));
      Test.make ~name:"permission-masks-web"
        (Staged.stage (fun () ->
             let cs = Lazy.force web in
             let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
             ignore (Mcperf.Permission.compute spec Mcperf.Classes.caching)));
    ]

(* --- sweep: sequential vs parallel figure-2 sweep ------------------------- *)

(* `main.exe sweep` times the Figure-2 bound-and-heuristic sweep twice —
   jobs=1 and jobs=4 — verifies the outputs are identical, and records the
   measured speedup in BENCH_sweep.json. Run on a multi-core box this
   shows the worker pool's gain; on a single-core container the two times
   coincide (the JSON records the detected core count so the number can
   be judged in context). *)

let sweep_classes_fixture =
  [
    ("General lower bound", Mcperf.Classes.general);
    ("Storage constrained", Mcperf.Classes.storage_constrained);
    ("Replica constrained", Mcperf.Classes.replica_constrained_uniform);
    ("Decentral local routing", Mcperf.Classes.decentralized_local_routing);
  ]

let run_sweep ?(deadline_s = infinity) ?obs ~jobs () =
  let cs = Lazy.force web in
  let points = [ 0.95; 0.99; 0.999; 0.9999; 0.99999 ] in
  let bound_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sim_spec q = CS.qos_spec cs ~fraction:q ~for_bounds:false () in
  let t0 = Unix.gettimeofday () in
  let bounds =
    Bounds.Pipeline.(
      sweep_classes
        { Sweep_config.default with jobs; deadline_s; obs }
        bound_spec ~fractions:points sweep_classes_fixture)
  in
  let deployed =
    Util.Parallel.map_values ~jobs
      ~f:(fun q ->
        Sim.Runner.deploy_offline ~factory:Heuristics.Greedy_global.strategy
          ~spec:(sim_spec q) ())
      points
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Strip the wall-clock fields — and the solve-path tags, which are
     bookkeeping about *how* a cell was recovered, not *what* it
     computed: everything left must be identical across jobs settings
     and across fault-injection runs. *)
  let signature =
    ( List.map
        (fun (label, cells) ->
          ( label,
            List.map
              (fun (q, (r : Bounds.Pipeline.t)) ->
                (q, r.Bounds.Pipeline.feasible, r.Bounds.Pipeline.lower_bound,
                 r.Bounds.Pipeline.lp_iterations))
              cells ))
        bounds.Bounds.Pipeline.per_class,
      List.map
        (Option.map (fun (d : Sim.Runner.deployed) ->
             (d.Sim.Runner.parameter, d.Sim.Runner.cost)))
        deployed )
  in
  (elapsed, signature, bounds)

let json_of_paths paths =
  String.concat ", "
    (List.map
       (fun (p, n) ->
         Printf.sprintf "\"%s\": %d" (Bounds.Pipeline.path_label p) n)
       paths)

let json_of_qualities sweep =
  String.concat ", "
    (List.map
       (fun (q, n) ->
         Printf.sprintf "\"%s\": %d" (Bounds.Pipeline.quality_label q) n)
       (Bounds.Pipeline.quality_counts sweep))

let json_of_pool (p : Util.Parallel.pool_stats) =
  Printf.sprintf
    "\"worker_deaths\": %d, \"respawns\": %d, \"task_retries\": %d, \
     \"inline_recoveries\": %d, \"timeouts\": %d, \"fork_failures\": %d, \
     \"degraded\": %b"
    p.Util.Parallel.worker_deaths p.Util.Parallel.respawns
    p.Util.Parallel.task_retries p.Util.Parallel.inline_recoveries
    p.Util.Parallel.timeouts p.Util.Parallel.fork_failures
    p.Util.Parallel.degraded

(* A baseline file is best-effort state from a previous revision: it
   may be absent (fresh checkout), torn (a crash mid-write), or carry a
   drifted schema (older/newer revision). None of those should abort a
   measurement run — every failure mode degrades to "no baseline", a
   warning, and a null speedup in the output. Shared by the
   BENCH_sweep.json and BENCH_lp.json readers so both are equally
   defensive. *)
let read_baseline_num ~file ~key:bare_key =
  let warn reason =
    Printf.printf "warning: %s baseline %s: skipping the comparison\n%!" file
      reason;
    None
  in
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
    let s =
      match really_input_string ic (in_channel_length ic) with
      | s -> Some s
      | exception _ -> None
    in
    close_in_noerr ic;
    (match s with
    | None -> warn "is unreadable (torn write?)"
    | Some s ->
      let key = "\"" ^ bare_key ^ "\":" in
      let klen = String.length key in
      let rec find i =
        if i + klen > String.length s then None
        else if String.sub s i klen = key then begin
          let j = ref (i + klen) in
          let buf = Buffer.create 16 in
          while
            !j < String.length s
            && (match s.[!j] with
               | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' | ' ' -> true
               | _ -> false)
          do
            if s.[!j] <> ' ' then Buffer.add_char buf s.[!j];
            incr j
          done;
          float_of_string_opt (Buffer.contents buf)
        end
        else find (i + 1)
      in
      (match find 0 with
      | None ->
        warn
          (Printf.sprintf "has no parseable \"%s\" (schema drift?)" bare_key)
      | Some b when Float.is_finite b && b > 0. -> Some b
      | Some _ -> warn (Printf.sprintf "carries an implausible %s" bare_key)))

let read_baseline_sequential_s () =
  read_baseline_num ~file:"BENCH_sweep.json" ~key:"sequential_s"

(* Speedup numbers are only meaningful when the parallel legs actually
   had cores to spread over, and only comparable to a baseline measured
   on the same core count. Surface both conditions instead of letting a
   1-core box silently report a "regression". *)
let warn_core_context ~file ~cores =
  if cores <= 1 then
    Printf.printf
      "warning: 1 detected core; parallel legs measure dispatch overhead, \
       not speedup\n%!";
  match read_baseline_num ~file ~key:"detected_cores" with
  | Some b when int_of_float b <> cores ->
    Printf.printf
      "warning: %s baseline ran on %d core(s), this machine has %d; \
       speedup comparisons are cross-machine\n%!"
      file (int_of_float b) cores
  | Some _ | None -> ()

(* The injected-fault leg of the sweep benchmark: crash a worker on every
   3rd bound cell and poison the PDHG input on ~10%% of cells. The sweep
   must still complete with results identical to the clean run; the extra
   wall-clock is the price of the recovery machinery under fire, recorded
   so robustness overhead is visible in BENCH_LOG.tsv. *)
let bench_fault_spec = "seed=7,crash_every=3,diverge=0.1"

let sweep_benchmark () =
  let cores = Util.Parallel.available_cores () in
  let tasks = (List.length sweep_classes_fixture * 5) + 5 in
  Printf.printf "sweep benchmark: %d tasks, %d detected core(s)\n%!" tasks cores;
  warn_core_context ~file:"BENCH_sweep.json" ~cores;
  let seq_s, seq_sig, _ = run_sweep ~jobs:1 () in
  Printf.printf "jobs=1: %.2fs\n%!" seq_s;
  let par_jobs = 4 in
  let par_s, par_sig, par_bounds = run_sweep ~jobs:par_jobs () in
  let paths = Bounds.Pipeline.path_counts par_bounds in
  let pool = par_bounds.Bounds.Pipeline.pool in
  Printf.printf "jobs=%d: %.2fs\n%!" par_jobs par_s;
  if seq_sig <> par_sig then
    failwith "sweep benchmark: parallel and sequential results differ";
  let speedup = if par_s > 0. then seq_s /. par_s else 1. in
  Printf.printf "identical results; speedup %.2fx\n%!" speedup;
  let fault_spec =
    match Util.Faults.parse_result bench_fault_spec with
    | Ok s -> s
    | Error e -> failwith (Util.Parse_error.to_string e)
  in
  Util.Faults.install fault_spec;
  let faulted_s, faulted_sig, faulted_bounds = run_sweep ~jobs:par_jobs () in
  let faulted_paths = Bounds.Pipeline.path_counts faulted_bounds in
  let faulted_pool = faulted_bounds.Bounds.Pipeline.pool in
  Util.Faults.install Util.Faults.none;
  if faulted_sig <> par_sig then
    failwith "sweep benchmark: injected-fault run changed the results";
  Printf.printf "jobs=%d with '%s': %.2fs, identical results\n%!" par_jobs
    bench_fault_spec faulted_s;
  (* Deadline leg: grant ~30%% of the sequential wall-clock. The sweep
     must finish within the budget plus one cell's grace (a cell can only
     stop at its next solver checkpoint), and every degraded bound must
     sit at or below its unconstrained counterpart — a truncated PDHG run
     is a prefix of the same deterministic iterate stream, so its
     best-bound can only be looser (smaller). *)
  let budget_s = Float.max 1. (0.3 *. seq_s) in
  let dl_s, _, dl_bounds = run_sweep ~deadline_s:budget_s ~jobs:par_jobs () in
  let dl_max_cell =
    List.fold_left
      (fun acc (s : Bounds.Pipeline.task_stat) ->
        Float.max acc s.Bounds.Pipeline.wall_s)
      0. dl_bounds.Bounds.Pipeline.stats
  in
  let dl_grace = dl_max_cell +. 1.0 in
  let within_budget = dl_s <= budget_s +. dl_grace in
  let bounds_dominated =
    List.for_all2
      (fun (_, clean_cells) (_, dl_cells) ->
        List.for_all2
          (fun (_, (c : Bounds.Pipeline.t)) (_, (d : Bounds.Pipeline.t)) ->
            (not c.Bounds.Pipeline.feasible)
            || (not d.Bounds.Pipeline.feasible)
            || d.Bounds.Pipeline.lower_bound
               <= c.Bounds.Pipeline.lower_bound
                  +. (1e-6 *. (1. +. Float.abs c.Bounds.Pipeline.lower_bound)))
          clean_cells dl_cells)
      par_bounds.Bounds.Pipeline.per_class dl_bounds.Bounds.Pipeline.per_class
  in
  if not bounds_dominated then
    failwith "sweep benchmark: a deadline-degraded bound exceeds the clean one";
  Printf.printf
    "jobs=%d with deadline %.2fs: %.2fs (%s; grace %.2fs), degraded bounds \
     all <= clean\n\
     %!"
    par_jobs budget_s dl_s
    (if within_budget then "within budget" else "OVERRUN")
    dl_grace;
  let oc = open_out "BENCH_sweep.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "fig2-style sweep (bounds %d classes x 5 points + greedy-global 5 points)",
  "detected_cores": %d,
  "tasks": %d,
  "sequential_jobs": 1,
  "sequential_s": %.3f,
  "parallel_jobs": %d,
  "parallel_s": %.3f,
  "speedup": %.3f,
  "results_identical": true,
  "solve_paths": { %s },
  "quality": { %s },
  "pool": { %s },
  "faulted": {
    "spec": "%s",
    "parallel_s": %.3f,
    "overhead_ratio": %.3f,
    "results_identical": true,
    "solve_paths": { %s },
    "pool": { %s }
  },
  "deadline": {
    "budget_s": %.3f,
    "elapsed_s": %.3f,
    "grace_s": %.3f,
    "within_budget": %b,
    "degraded_bounds_dominated": %b,
    "quality": { %s }
  }
}
|}
    (List.length sweep_classes_fixture)
    cores tasks seq_s par_jobs par_s speedup (json_of_paths paths)
    (json_of_qualities par_bounds) (json_of_pool pool) bench_fault_spec
    faulted_s
    (if par_s > 0. then faulted_s /. par_s else 1.)
    (json_of_paths faulted_paths) (json_of_pool faulted_pool) budget_s dl_s
    dl_grace within_budget bounds_dominated (json_of_qualities dl_bounds);
  close_out oc;
  Printf.printf "wrote BENCH_sweep.json\n%!"

(* --- lp: the LP-substrate performance evidence ---------------------------- *)

(* `main.exe lp` measures the fast-LP substrate end to end and writes
   BENCH_lp.json:

   - fused vs reference PDHG iteration throughput (same recurrence, same
     iterates — the bound delta is reported and must sit within 1e-9);
   - sparse matvec throughput in GFLOP-equivalents (2*nnz flops/product);
   - per-stage timings of one pipeline cell (permission analysis, model
     build, incremental rhs patch, presolve, prepare, prepared reuse);
   - the fig2-style sweep wall-clock against the sequential baseline
     recorded in BENCH_sweep.json by the previous revision — read before
     `main.exe sweep` overwrites it — with the jobs=1/jobs=4 identity
     check re-run on today's code. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let lp_benchmark () =
  let cs = Lazy.force web in
  (* The storage-constrained class is the sweep's dominant cost: its QoS
     cells run tens of thousands of PDHG iterations. *)
  let cls = Mcperf.Classes.storage_constrained in
  let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
  let perm_s, perm = time (fun () -> Mcperf.Permission.compute spec cls) in
  let build_s, model = time (fun () -> Mcperf.Model.build perm) in
  let problem = model.Mcperf.Model.problem in
  let vars = Lp.Problem.nvars problem
  and rows = Lp.Problem.nrows problem
  and nnz = Lp.Problem.nnz problem in
  Printf.printf "lp benchmark: %d vars, %d rows, %d nnz\n%!" vars rows nnz;
  let patch_s, patched =
    time (fun () -> Mcperf.Model.with_fraction model 0.999)
  in
  let presolve_s, _ = time (fun () -> Lp.Presolve.run problem) in
  let prepare_s, prep = time (fun () -> Lp.Pdhg.prepare problem) in
  let reuse_s, _ =
    time (fun () ->
        Lp.Pdhg.prepare ~reuse:prep patched.Mcperf.Model.problem)
  in
  (* Fixed-budget solves: rel_tol 0 disables early convergence so both
     paths execute exactly [iters] iterations of the same recurrence. *)
  let iters = 4_000 in
  let options =
    { Lp.Pdhg.default_options with max_iters = iters; rel_tol = 0. }
  in
  (* Previous revision's fused throughput, read before this run
     overwrites BENCH_lp.json — same warn-and-skip handling as the
     BENCH_sweep.json baseline. *)
  let lp_baseline =
    read_baseline_num ~file:"BENCH_lp.json" ~key:"fused_iters_per_s"
  in
  (match lp_baseline with
  | Some b ->
    Printf.printf "baseline fused_iters_per_s from BENCH_lp.json: %.0f\n%!" b
  | None -> Printf.printf "no BENCH_lp.json baseline found\n%!");
  let fused_s, fused = time (fun () -> Lp.Pdhg.solve ~options problem) in
  let ref_s, reference =
    time (fun () -> Lp.Pdhg.solve_reference ~options problem)
  in
  let bound_delta =
    Float.abs (fused.Lp.Pdhg.best_bound -. reference.Lp.Pdhg.best_bound)
  in
  Printf.printf
    "pdhg %d iters: fused %.3fs (%.0f it/s), reference %.3fs (%.0f it/s), \
     %.2fx, bound delta %.3e\n\
     %!"
    iters fused_s
    (float_of_int iters /. fused_s)
    ref_s
    (float_of_int iters /. ref_s)
    (ref_s /. fused_s) bound_delta;
  (* Matvec throughput: a dense-equivalent flop count of 2*nnz per
     product (one multiply + one add per stored coefficient). *)
  let a = Lp.Problem.constraint_matrix (Lp.Problem.normalize_ge problem) in
  let x = Array.make vars 1. and y = Array.make rows 0. in
  let reps = 2_000 in
  let mul_s, () =
    time (fun () ->
        for _ = 1 to reps do
          Lp.Sparse.mul a x y
        done)
  in
  let mul_t_s, () =
    time (fun () ->
        for _ = 1 to reps do
          Lp.Sparse.mul_t a y x
        done)
  in
  let gflops s = float_of_int (2 * nnz * reps) /. s /. 1e9 in
  Printf.printf "matvec: mul %.3f GFLOP-equiv/s, mul_t %.3f GFLOP-equiv/s\n%!"
    (gflops mul_s) (gflops mul_t_s);
  (* End-to-end: the same fig2-style sweep the PR-1 baseline measured. *)
  let cores = Util.Parallel.available_cores () in
  warn_core_context ~file:"BENCH_sweep.json" ~cores;
  let baseline = read_baseline_sequential_s () in
  (match baseline with
  | Some b -> Printf.printf "baseline sequential_s from BENCH_sweep.json: %.3f\n%!" b
  | None -> Printf.printf "no BENCH_sweep.json baseline found\n%!");
  let seq_s, seq_sig, _ = run_sweep ~jobs:1 () in
  let par_s, par_sig, _ = run_sweep ~jobs:4 () in
  let results_identical = seq_sig = par_sig in
  if not results_identical then
    failwith "lp benchmark: parallel and sequential sweep results differ";
  let speedup =
    match baseline with Some b when seq_s > 0. -> b /. seq_s | _ -> 1.
  in
  Printf.printf "sweep jobs=1: %.2fs (baseline speedup %.2fx), jobs=4: %.2fs\n%!"
    seq_s speedup par_s;
  let oc = open_out "BENCH_lp.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "LP substrate: fused PDHG kernels, presolve wiring, incremental models",
  "detected_cores": %d,
  "fixture": "web nodes=10 scale=0.02 intervals=12, storage-constrained class",
  "model": { "vars": %d, "rows": %d, "nnz": %d },
  "stage_timings_s": {
    "permission": %.6f,
    "model_build": %.6f,
    "with_fraction_patch": %.6f,
    "presolve": %.6f,
    "prepare": %.6f,
    "prepare_reused": %.6f
  },
  "pdhg": {
    "iterations_timed": %d,
    "fused_s": %.3f,
    "fused_iters_per_s": %.0f,
    "reference_s": %.3f,
    "reference_iters_per_s": %.0f,
    "per_iteration_speedup": %.3f,
    "baseline_fused_iters_per_s": %s,
    "throughput_vs_baseline": %s,
    "bound_delta_vs_reference": %.3e,
    "bounds_within_1e-9": %b
  },
  "matvec": {
    "flops_per_product": %d,
    "mul_gflops_equiv": %.3f,
    "mul_t_gflops_equiv": %.3f
  },
  "sweep": {
    "baseline_sequential_s": %s,
    "baseline_source": "BENCH_sweep.json (previous revision, jobs=1)",
    "sequential_s": %.3f,
    "end_to_end_speedup": %.3f,
    "parallel_jobs4_s": %.3f,
    "results_identical": %b
  }
}
|}
    cores vars rows nnz perm_s build_s patch_s presolve_s prepare_s reuse_s
    iters
    fused_s
    (float_of_int iters /. fused_s)
    ref_s
    (float_of_int iters /. ref_s)
    (ref_s /. fused_s)
    (match lp_baseline with
    | Some b -> Printf.sprintf "%.0f" b
    | None -> "null")
    (match lp_baseline with
    | Some b when b > 0. ->
      Printf.sprintf "%.3f" (float_of_int iters /. fused_s /. b)
    | _ -> "null")
    bound_delta
    (bound_delta <= 1e-9)
    (2 * nnz) (gflops mul_s) (gflops mul_t_s)
    (match baseline with
    | Some b -> Printf.sprintf "%.3f" b
    | None -> "null")
    seq_s speedup par_s results_identical;
  close_out oc;
  Printf.printf "wrote BENCH_lp.json\n%!"

(* --- obs: observability overhead ------------------------------------------ *)

(* `main.exe obs` prices the observability layer on the fig2-style sweep
   at jobs=4. Three legs: instrumentation compiled in but disabled (the
   default ambient config), enabled with the null sink (every span and
   counter exercised, trace discarded), and enabled with a JSONL file
   sink (worker payloads shipped over the pool pipe, merged, written).
   The null-sink leg is the acceptance gate: all instrumentation sits
   behind an `if enabled` check on an immutable config, so its overhead
   must be noise-level. Each timed leg takes the minimum of [reps] runs
   to damp scheduler noise. *)

let obs_trace_file = "BENCH_obs_trace.jsonl"

(* Minimal structural validation of the merged JSONL trace: every line
   is a {...} object, span begins and ends balance, and spans from the
   worker "task:" scopes actually made it into the parent's merge. *)
let validate_trace path =
  let ic = open_in path in
  let lines = ref 0 and begins = ref 0 and ends = ref 0 in
  let task_scopes = Hashtbl.create 8 in
  let well_formed = ref true in
  let contains line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr lines;
         if
           not
             (String.length line >= 2
             && line.[0] = '{'
             && line.[String.length line - 1] = '}')
         then well_formed := false;
         if contains line "\"kind\":\"B\"" then incr begins;
         if contains line "\"kind\":\"E\"" then incr ends;
         (* Events always serialize as {"scope":"<name>",... — pull the
            scope value out and remember the distinct task:* ones. *)
         let prefix = "{\"scope\":\"" in
         let plen = String.length prefix in
         if String.length line > plen && String.sub line 0 plen = prefix then begin
           match String.index_from_opt line plen '"' with
           | Some stop ->
             let scope = String.sub line plen (stop - plen) in
             if String.length scope >= 5 && String.sub scope 0 5 = "task:"
             then Hashtbl.replace task_scopes scope ()
           | None -> well_formed := false
         end
       end
     done
   with End_of_file -> ());
  close_in ic;
  (!lines, !begins, !ends, Hashtbl.length task_scopes, !well_formed)

let obs_benchmark () =
  let jobs = 4 and reps = 3 in
  Printf.printf
    "obs benchmark: fig2-style sweep, jobs=%d, min of %d interleaved rounds\n%!"
    jobs reps;
  (* The three legs run interleaved — disabled, null, jsonl, repeat —
     so slow machine-wide drift (thermal, background daemons) hits all
     legs alike instead of biasing whichever leg ran last; each leg
     keeps its minimum across rounds. A sub-2% overhead is invisible to
     leg-at-a-time timing on a noisy host. *)
  let base_s = ref infinity
  and null_s = ref infinity
  and jsonl_s = ref infinity in
  let sg = ref None in
  let note (s, signature, _) best =
    (match !sg with
    | None -> sg := Some signature
    | Some prev ->
      if prev <> signature then
        failwith "obs benchmark: instrumentation changed the sweep results");
    if s < !best then best := s
  in
  let jsonl_cfg =
    { Obs.Config.default with sink = Obs.Config.Jsonl_file obs_trace_file }
  in
  for _ = 1 to reps do
    Obs.Config.install Obs.Config.disabled;
    note (run_sweep ~jobs ()) base_s;
    note (run_sweep ~obs:Obs.Config.default ~jobs ()) null_s;
    (* The JSONL sink appends on flush; start each round from a clean
       file so the validated trace is exactly one sweep's. *)
    if Sys.file_exists obs_trace_file then Sys.remove obs_trace_file;
    note (run_sweep ~obs:jsonl_cfg ~jobs ()) jsonl_s;
    (* Flush while the JSONL config is still installed. *)
    Obs.Sink.flush ()
  done;
  Obs.Config.install Obs.Config.disabled;
  let base_s = !base_s and null_s = !null_s and jsonl_s = !jsonl_s in
  Printf.printf "instrumentation disabled: %.2fs\n%!" base_s;
  Printf.printf "null sink: %.2fs\n%!" null_s;
  Printf.printf "jsonl sink: %.2fs\n%!" jsonl_s;
  let lines, begins, ends, task_scopes, well_formed =
    validate_trace obs_trace_file
  in
  let balance_ok = begins = ends && begins > 0 in
  Printf.printf
    "trace %s: %d events, %d/%d begin/end, %d task scopes, results identical\n%!"
    obs_trace_file lines begins ends task_scopes;
  if not well_formed then
    failwith "obs benchmark: malformed JSONL line in the merged trace";
  if not balance_ok then
    failwith "obs benchmark: unbalanced spans in the merged trace";
  if task_scopes = 0 then
    failwith "obs benchmark: no worker spans made it into the merged trace";
  let ratio x = if base_s > 0. then x /. base_s else 1. in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "observability overhead on the fig2-style sweep",
  "jobs": %d,
  "runs_per_leg": %d,
  "baseline_s": %.3f,
  "null_sink_s": %.3f,
  "null_sink_overhead_ratio": %.4f,
  "jsonl_sink_s": %.3f,
  "jsonl_sink_overhead_ratio": %.4f,
  "results_identical": true,
  "trace": {
    "file": "%s",
    "events": %d,
    "span_begins": %d,
    "span_ends": %d,
    "task_scopes": %d,
    "well_formed": %b
  }
}
|}
    jobs reps base_s null_s (ratio null_s) jsonl_s (ratio jsonl_s)
    obs_trace_file lines begins ends task_scopes well_formed;
  close_out oc;
  Printf.printf "wrote BENCH_obs.json\n%!"

(* --- tree: the exact DP vs the LP substrate on tree instances ------------- *)

(* `main.exe tree` times Bounds.Pipeline.compute with the Auto solver —
   which routes tree-eligible general cells through the closest-
   allocation DP — against the same cell forced through exact simplex
   (40-node random tree) and through PDHG (121-node balanced tree). The
   DP must win by construction (it is O(pareto-front) on the tree while
   the LP rebuilds the full MC-PERF model); the JSON records by how
   much, and the bound orderings are asserted on every run. *)

module TS = Replica_select.Tree_scenario

let min_time reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let s = Unix.gettimeofday () -. t0 in
    if s < !best then best := s;
    result := Some r
  done;
  (!best, Option.get !result)

let tree_benchmark () =
  let reps = 5 in
  let leg name (scen : TS.t) forced =
    let spec = scen.TS.spec in
    let dp_s, dp_cell =
      min_time reps (fun () ->
          Bounds.Pipeline.compute ?placeable:scen.TS.placeable spec
            Mcperf.Classes.general)
    in
    if dp_cell.Bounds.Pipeline.solve_path <> Bounds.Pipeline.Path_tree_dp
    then failwith (name ^ ": Auto did not route through the tree DP");
    let lp_s, lp_cell =
      min_time reps (fun () ->
          Bounds.Pipeline.compute ~solver:forced
            ?placeable:scen.TS.placeable spec Mcperf.Classes.general)
    in
    let dp = dp_cell.Bounds.Pipeline.lower_bound in
    let lp = lp_cell.Bounds.Pipeline.lower_bound in
    if lp > dp +. (1e-6 *. (1. +. Float.abs dp)) then
      failwith (name ^ ": LP bound above the DP optimum");
    Printf.printf
      "%-22s dp %8.4fs (bound %8.2f)   lp %8.4fs (bound %8.2f)   speedup %6.1fx\n%!"
      name dp_s dp lp_s lp (lp_s /. dp_s);
    (dp_s, dp, lp_s, lp)
  in
  Printf.printf
    "tree benchmark: exact DP vs forced LP producers, min of %d runs\n%!" reps;
  let small = TS.make ~seed:7 (TS.Random { nodes = 40 }) in
  let large = TS.make ~seed:9 (TS.Balanced { fanout = 3; depth = 4 }) in
  let sm_dp_s, sm_dp, sm_lp_s, sm_lp =
    leg "random-40/simplex" small Bounds.Pipeline.Exact_simplex
  in
  let lg_dp_s, lg_dp, lg_lp_s, lg_lp =
    leg "balanced-121/pdhg" large
      (Bounds.Pipeline.First_order
         {
           Lp.Pdhg.default_options with
           Lp.Pdhg.max_iters = 20_000;
           rel_tol = 1e-6;
         })
  in
  let speedup dp lp = if dp > 0. then lp /. dp else 1. in
  let oc = open_out "BENCH_tree.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "exact tree DP vs forced LP producers",
  "runs_per_leg": %d,
  "detected_cores": %d,
  "small": {
    "instance": "%s",
    "tree_dp_s": %.4f,
    "tree_dp_bound": %.4f,
    "tree_lp_s": %.4f,
    "tree_lp_bound": %.4f,
    "tree_dp_speedup": %.2f
  },
  "large": {
    "instance": "%s",
    "tree_dp_large_s": %.4f,
    "tree_dp_large_bound": %.4f,
    "tree_pdhg_s": %.4f,
    "tree_pdhg_bound": %.4f,
    "tree_pdhg_speedup": %.2f
  }
}
|}
    reps
    (Util.Parallel.available_cores ())
    small.TS.name sm_dp_s sm_dp sm_lp_s sm_lp (speedup sm_dp_s sm_lp_s)
    large.TS.name lg_dp_s lg_dp lg_lp_s lg_lp (speedup lg_dp_s lg_lp_s);
  close_out oc;
  Printf.printf "wrote BENCH_tree.json\n%!"

(* --- scale: bundled Lagrangian at 200+ nodes ------------------------------ *)

module SS = Replica_select.Scale_scenario

(* `main.exe scale` measures the scale-sweep machinery on the CDN family
   and writes BENCH_scale.json:

   - the ratio leg runs the SAME instance and iteration budget bundled
     and forced-unbundled; the family is homogeneous, so the bound delta
     must be exactly 0 — any drift is a bundling bug, not float noise —
     and the wall-clock ratio is the bundling speedup;
   - the headline leg is the full fig2-style 3-point sweep at 229 nodes
     and 10k objects. *)
let scale_benchmark () =
  let cores = Util.Parallel.available_cores () in
  let scen = SS.make () in
  let nodes = SS.node_count scen and objects = SS.object_count scen in
  Printf.printf "scale benchmark: %s, %d detected core(s)\n%!" scen.SS.name
    cores;
  warn_core_context ~file:"BENCH_scale.json" ~cores;
  let spec = SS.qos_spec scen ~fraction:0.99 in
  let cls = Mcperf.Classes.general in
  let ratio_iters = 40 in
  let t0 = Unix.gettimeofday () in
  let bundled = Bounds.Lagrangian.bound ~iterations:ratio_iters spec cls in
  let bundled_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let unbundled =
    Bounds.Lagrangian.bound ~iterations:ratio_iters ~bundling:false spec cls
  in
  let unbundled_s = Unix.gettimeofday () -. t0 in
  let bound_delta =
    bundled.Bounds.Lagrangian.bound -. unbundled.Bounds.Lagrangian.bound
  in
  if bound_delta <> 0. then
    failwith
      (Printf.sprintf
         "scale benchmark: bundled and unbundled bounds differ by %g on a \
          homogeneous instance"
         bound_delta);
  let bundle_ratio =
    float_of_int objects /. float_of_int (max 1 bundled.Bounds.Lagrangian.bundles)
  in
  let bundling_speedup =
    if bundled_s > 0. then unbundled_s /. bundled_s else 1.
  in
  Printf.printf
    "ratio leg (%d iters): unbundled %.2fs, bundled %.2fs -> %.1fx \
     (%d bundles, ratio %.1fx, bound delta exactly 0)\n\
     %!"
    ratio_iters unbundled_s bundled_s bundling_speedup
    bundled.Bounds.Lagrangian.bundles bundle_ratio;
  let fractions = [ 0.9; 0.95; 0.99 ] in
  let t0 = Unix.gettimeofday () in
  ignore (Bounds.Lagrangian.sweep ~iterations:40 spec cls ~fractions);
  let sweep_s = Unix.gettimeofday () -. t0 in
  Printf.printf "sweep %d nodes x %d objects x %d points: %.2fs\n%!" nodes
    objects (List.length fractions) sweep_s;
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "CDN scale family: bundled Lagrangian sweep",
  "detected_cores": %d,
  "instance": "%s",
  "scale_nodes": %d,
  "scale_objects": %d,
  "bundles": %d,
  "bundle_ratio": %.2f,
  "rescaled_members": %d,
  "ratio_leg": {
    "iterations": %d,
    "unbundled_s": %.3f,
    "bundled_s": %.3f,
    "speedup": %.2f,
    "bound_delta": %.17g
  },
  "scale_sweep_s": %.3f
}
|}
    cores scen.SS.name nodes objects bundled.Bounds.Lagrangian.bundles
    bundle_ratio bundled.Bounds.Lagrangian.rescaled_members ratio_iters
    unbundled_s bundled_s bundling_speedup bound_delta sweep_s;
  close_out oc;
  Printf.printf "wrote BENCH_scale.json\n%!"

(* --- avail: failure scenarios, degraded replay, scenario LP --------------- *)

(* `main.exe avail` prices the availability layer and writes
   BENCH_avail.json:

   - degradation-replay throughput: the greedy-global reference
     placement replayed against the seeded outage timeline, in
     steps/second (min of [reps] runs);
   - the fragility of that placement over the sampled scenario set (the
     figavail headline number for this fixture);
   - scenario-LP overhead: the general-class expected-cost sweep
     (Bounds.Avail_bound) timed against the plain nominal sweep_qos on
     the same fractions — the ratio is the price of carrying the
     scenarios' coverage terms through the fraction sweep's
     prepare/warm-start cache. The scenario bound must sit at or below
     the reference placement's measured expected degraded cost (the
     lower-bound validity the tests pin down), asserted on every run. *)

let avail_benchmark () =
  let reps = 3 in
  let cs = Lazy.force web in
  let sim_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  let bound_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sys = sim_spec.Mcperf.Spec.system in
  let groups = Avail.Groups.derive sys in
  (* A harsher draw than the default spec: with the case studies'
     gamma = 0 only origin-down scenarios contribute coverage terms to
     the scenario LP, and at the default 2% per-node rate a 64-scenario
     draw can easily contain none (leaving the LP the same size as the
     nominal model). 64 scenarios at a 10% rate reliably include several,
     so the overhead leg times a model that genuinely carries scenario
     terms. *)
  let sspec = { Avail.Scenario.default with count = 64; node_prob = 0.1 } in
  let scenarios = Avail.Scenario.sample_all sspec sys ~groups in
  let tl = Avail.Scenario.timeline sspec sys ~groups in
  let origin_down =
    Array.fold_left
      (fun acc (s : Avail.Scenario.t) ->
        if s.Avail.Scenario.down.(sys.Topology.System.origin) then acc + 1
        else acc)
      0 scenarios
  in
  Printf.printf
    "avail benchmark: %d groups, %d scenarios (%d origin-down), %d-step \
     timeline, min of %d runs\n\
     %!"
    (Array.length groups) (Array.length scenarios) origin_down
    tl.Avail.Scenario.steps reps;
  let deployed =
    match
      Sim.Runner.deploy_offline ~factory:Heuristics.Greedy_global.strategy
        ~spec:sim_spec ()
    with
    | Some d -> d
    | None -> failwith "avail benchmark: greedy-global met no goal"
  in
  let placement =
    match deployed.Sim.Runner.placement with
    | Some p -> p
    | None -> failwith "avail benchmark: deployment carries no placement"
  in
  let perm = Mcperf.Permission.compute sim_spec Mcperf.Classes.general in
  let baseline =
    read_baseline_num ~file:"BENCH_avail.json" ~key:"replay_steps_per_s"
  in
  (match baseline with
  | Some b ->
    Printf.printf "baseline replay_steps_per_s from BENCH_avail.json: %.0f\n%!"
      b
  | None -> Printf.printf "no BENCH_avail.json baseline found\n%!");
  let replay_s, _ =
    min_time reps (fun () ->
        Sim.Runner.degradation_replay ~perm ~placement ~timeline:tl ())
  in
  let steps_per_s = float_of_int tl.Avail.Scenario.steps /. replay_s in
  Printf.printf "replay: %.4fs (%.0f steps/s)\n%!" replay_s steps_per_s;
  let a = Avail.Survive.assess perm placement ~scenarios in
  Printf.printf
    "greedy-global fragility %.4f (expected %.1f vs nominal %.1f over %d \
     scenarios)\n\
     %!"
    a.Avail.Survive.fragility a.Avail.Survive.expected_cost
    a.Avail.Survive.base_cost a.Avail.Survive.scenarios;
  let fractions = [ 0.95; 0.99; 0.999 ] in
  let nominal_s, _ =
    min_time reps (fun () ->
        Bounds.Pipeline.sweep_qos bound_spec fractions Mcperf.Classes.general)
  in
  let scen_s, cells =
    min_time reps (fun () ->
        Bounds.Avail_bound.expected_cost_cells bound_spec
          Mcperf.Classes.general ~scenarios ~fractions)
  in
  let head = List.hd cells in
  let reused_cells =
    List.length (List.filter (fun c -> c.Bounds.Avail_bound.reused) cells)
  in
  let lb = head.Bounds.Avail_bound.expected_bound in
  let bound_ok =
    lb
    <= a.Avail.Survive.expected_cost
       +. (1e-6 *. (1. +. Float.abs a.Avail.Survive.expected_cost))
  in
  if not bound_ok then
    failwith
      (Printf.sprintf
         "avail benchmark: scenario-LP bound %.4f above the measured \
          expected cost %.4f"
         lb a.Avail.Survive.expected_cost);
  let overhead = if nominal_s > 0. then scen_s /. nominal_s else 1. in
  Printf.printf
    "scenario LP (%d vars, %d nominal): sweep %.3fs vs nominal %.3fs \
     (overhead %.2fx, %d/%d cells reused), bound %.1f <= expected %.1f\n\
     %!"
    head.Bounds.Avail_bound.vars head.Bounds.Avail_bound.nominal_vars scen_s
    nominal_s overhead reused_cells (List.length cells) lb
    a.Avail.Survive.expected_cost;
  let oc = open_out "BENCH_avail.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "availability layer: degraded replay, fragility, scenario LP",
  "detected_cores": %d,
  "fixture": "web nodes=10 scale=0.02 intervals=12, greedy-global reference placement",
  "groups": %d,
  "avail_scenarios": %d,
  "timeline_steps": %d,
  "avail_replay_s": %.4f,
  "replay_steps_per_s": %.0f,
  "baseline_replay_steps_per_s": %s,
  "replay_vs_baseline": %s,
  "avail_fragility": %.4f,
  "expected_degraded_cost": %.3f,
  "nominal_cost": %.3f,
  "scenario_lp": {
    "fractions": %d,
    "vars": %d,
    "nominal_vars": %d,
    "rows": %d,
    "reused_cells": %d,
    "nominal_sweep_s": %.3f,
    "scenario_sweep_s": %.3f,
    "overhead_ratio": %.3f,
    "bound_below_measured_expected": %b
  }
}
|}
    (Util.Parallel.available_cores ())
    (Array.length groups) (Array.length scenarios) tl.Avail.Scenario.steps
    replay_s steps_per_s
    (match baseline with
    | Some b -> Printf.sprintf "%.0f" b
    | None -> "null")
    (match baseline with
    | Some b when b > 0. -> Printf.sprintf "%.3f" (steps_per_s /. b)
    | _ -> "null")
    a.Avail.Survive.fragility a.Avail.Survive.expected_cost
    a.Avail.Survive.base_cost (List.length fractions)
    head.Bounds.Avail_bound.vars head.Bounds.Avail_bound.nominal_vars
    head.Bounds.Avail_bound.rows reused_cells nominal_s scen_s overhead
    bound_ok;
  close_out oc;
  Printf.printf "wrote BENCH_avail.json\n%!"

(* --- online service benchmark: epochs/s and the warm-start payoff ---------- *)

(* The online engine's claim is twofold: it sustains a re-placement
   cadence (epochs/s), and warm-starting each epoch's class bounds from
   the previous epoch's solution beats solving cold. The solver is
   forced to PDHG so the warm start has iterations to save — under Auto
   these instances would route to the simplex and the comparison would
   measure nothing. Bounds from either path are valid at any iterate, so
   the run also asserts regret stayed nonnegative both ways. *)
let online_benchmark () =
  let reps = 2 in
  let cs = Lazy.force web in
  let intervals = 12 and epoch_intervals = 2 in
  let interval_s =
    Workload.Trace.duration_s cs.CS.trace /. float_of_int intervals
  in
  let config warm =
    {
      Online.Engine.system = cs.CS.system;
      interval_s;
      epoch_intervals;
      costs = Mcperf.Spec.default_costs;
      goal = Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.95 };
      placeable = None;
      strategies =
        [
          ("greedy-global", Heuristics.Greedy_global.strategy);
          ("proportional", Heuristics.Proportional.strategy);
        ];
      solver = Bounds.Pipeline.First_order Lp.Pdhg.default_options;
      warm;
    }
  in
  let solve_total epochs =
    List.fold_left
      (fun acc (e : Online.Engine.epoch) -> acc +. e.Online.Engine.solve_s)
      0. epochs
  in
  let assert_regret label epochs =
    List.iter
      (fun (e : Online.Engine.epoch) ->
        List.iter
          (fun (d : Online.Engine.decision) ->
            match d.Online.Engine.regret with
            | Some r when r < -1e-9 ->
              failwith
                (Printf.sprintf
                   "online benchmark (%s): negative regret %.6f for %s at \
                    epoch %d"
                   label r d.Online.Engine.strategy e.Online.Engine.index)
            | _ -> ())
          e.Online.Engine.decisions)
      epochs
  in
  let warm_total_s, (warm_t, warm_epochs) =
    min_time reps (fun () -> Online.Engine.run (config true) ~trace:cs.CS.trace)
  in
  let _cold_total_s, (cold_t, cold_epochs) =
    min_time reps (fun () ->
        Online.Engine.run (config false) ~trace:cs.CS.trace)
  in
  assert_regret "warm" warm_epochs;
  assert_regret "cold" cold_epochs;
  if Online.Engine.warm_lifts cold_t <> 0 then
    failwith "online benchmark: cold handle reported warm lifts";
  if Online.Engine.warm_lifts warm_t = 0 then
    failwith "online benchmark: warm handle never lifted a prior solution";
  let warm_solve_s = solve_total warm_epochs in
  let cold_solve_s = solve_total cold_epochs in
  let n_epochs = List.length warm_epochs in
  let epochs_per_s =
    if warm_total_s > 0. then float_of_int n_epochs /. warm_total_s else 0.
  in
  let warm_speedup =
    if warm_solve_s > 0. then cold_solve_s /. warm_solve_s else 1.
  in
  Printf.printf
    "online: %d epochs in %.3fs (%.2f epochs/s), solve warm %.3fs vs cold \
     %.3fs (speedup %.2fx, %d/%d lifted)\n\
     %!"
    n_epochs warm_total_s epochs_per_s warm_solve_s cold_solve_s warm_speedup
    (Online.Engine.warm_lifts warm_t)
    (Online.Engine.bound_solves warm_t);
  let oc = open_out "BENCH_online.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "online placement service: epoch loop and warm-started bounds",
  "detected_cores": %d,
  "fixture": "web nodes=10 scale=0.02 intervals=12 epoch=2, PDHG forced, greedy-global + proportional",
  "online_epochs": %d,
  "online_total_s": %.4f,
  "online_epochs_s": %.4f,
  "warm_solve_s": %.4f,
  "cold_solve_s": %.4f,
  "online_warm_speedup": %.4f,
  "warm_lifts": %d,
  "bound_solves": %d,
  "regret_nonnegative": true
}
|}
    (Util.Parallel.available_cores ())
    n_epochs warm_total_s epochs_per_s warm_solve_s cold_solve_s warm_speedup
    (Online.Engine.warm_lifts warm_t)
    (Online.Engine.bound_solves warm_t);
  close_out oc;
  Printf.printf "wrote BENCH_online.json\n%!"

(* --- driver ------------------------------------------------------------------ *)

let benchmark test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.) ~stabilize:false
      ~kde:None ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

let print_results results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Printf.printf "%-44s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-44s %16s\n" name pretty)
    rows

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "sweep" then sweep_benchmark ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "lp" then lp_benchmark ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "obs" then obs_benchmark ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "scale" then
    scale_benchmark ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "tree" then
    tree_benchmark ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "avail" then
    avail_benchmark ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "online" then
    online_benchmark ()
  else
    List.iter
      (fun test ->
        let results = benchmark test in
        print_results results;
        print_newline ())
      [ substrate_tests; fig1_tests; fig2_tests; fig3_tests; scale_tests ]
