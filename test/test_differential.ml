(* Differential tests for the LP stack, plus parallel-sweep determinism.

   The methodology's conclusions are only as good as the agreement between
   its bound producers: the exact simplex, the first-order PDHG solver,
   and the weak-duality certificate. This suite cross-checks them on two
   families of PRNG-seeded instances:

   - random dense LPs (feasible by construction: every row is satisfied
     with slack at a random interior point of the box);
   - random small MC-PERF instances drawn from the case-study generator
     across seeds, workloads, node counts and heuristic classes.

   Invariants: PDHG's certified bound must agree with the simplex optimum
   within tolerance, and no certificate value may ever exceed the simplex
   optimum (weak duality — the property the paper's methodology rests
   on). The determinism section then checks that the parallel sweep
   engine returns byte-identical reports at every jobs setting. *)

module CS = Replica_select.Case_study
module Report = Replica_select.Report
module Figure = Replica_select.Figure

let instances = 50

(* Relative tolerances calibrated against the solvers: PDHG at rel_tol
   1e-8 closes the gap to ~1e-9 on the dense family and ~2e-6 on the
   MC-PERF family (where it occasionally stops on the tolerance plateau
   short of full convergence); weak duality is exact up to rounding. *)
let agree_tol = 1e-4
let duality_tol = 1e-9

let tight_pdhg =
  {
    Lp.Pdhg.default_options with
    max_iters = 100_000;
    rel_tol = 1e-8;
    check_every = 25;
  }

(* --- random dense LPs --------------------------------------------------- *)

(* [eq_rows] equality rows through the interior point follow the
   inequalities; with none the draw is unchanged. *)
let random_dense_lp ?(eq_rows = 0) rng =
  let open Lp.Problem in
  let nvars = 3 + Util.Prng.int rng 6 in
  let b = Builder.create () in
  let hi = Array.init nvars (fun _ -> 1. +. Util.Prng.float rng 9.) in
  for j = 0 to nvars - 1 do
    ignore
      (Builder.add_var b ~lo:0. ~hi:hi.(j)
         ~obj:(Util.Prng.float rng 2. -. 1.)
         ())
  done;
  (* Interior point certifying feasibility; rows get slack around it. *)
  let xstar =
    Array.init nvars (fun j -> hi.(j) *. (0.2 +. Util.Prng.float rng 0.6))
  in
  let nrows = nvars + Util.Prng.int rng nvars in
  for _ = 1 to nrows do
    let coeffs = ref [] and dot = ref 0. in
    for j = 0 to nvars - 1 do
      if Util.Prng.float rng 1. < 0.5 then begin
        let c = Util.Prng.float rng 4. -. 2. in
        coeffs := (j, c) :: !coeffs;
        dot := !dot +. (c *. xstar.(j))
      end
    done;
    if !coeffs = [] then begin
      let j = Util.Prng.int rng nvars in
      coeffs := [ (j, 1.) ];
      dot := xstar.(j)
    end;
    let slack = 0.1 +. Util.Prng.float rng 1. in
    if Util.Prng.float rng 1. < 0.5 then
      Builder.add_row b Ge ~rhs:(!dot -. slack) !coeffs
    else Builder.add_row b Le ~rhs:(!dot +. slack) !coeffs
  done;
  for _ = 1 to eq_rows do
    let j = Util.Prng.int rng nvars in
    let k = (j + 1 + Util.Prng.int rng (nvars - 1)) mod nvars in
    let cj = 0.5 +. Util.Prng.float rng 1. in
    let ck = Util.Prng.float rng 2. -. 1. in
    Builder.add_row b Eq
      ~rhs:((cj *. xstar.(j)) +. (ck *. xstar.(k)))
      [ (j, cj); (k, ck) ]
  done;
  Builder.build b

(* A value's bytes: equal bytes mean equal structure with every float
   equal bit for bit. *)
let bits v = Marshal.to_string v [ Marshal.No_sharing ]

let check_against_simplex ~what ~index problem =
  match Lp.Simplex.solve problem with
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
    Alcotest.failf "%s %d: simplex did not return an optimum" what index
  | Lp.Simplex.Optimal { objective = opt; _ } ->
    let out = Lp.Pdhg.solve ~options:tight_pdhg problem in
    let scale = 1. +. Float.abs opt in
    (* The two-sweep iteration runs the reference's recurrence with every
       per-element expression in the same order and association, so the
       whole outcome (iterates, duals, bound, counts) must be equal. *)
    let ref_out = Lp.Pdhg.solve_reference ~options:tight_pdhg problem in
    if bits out <> bits ref_out then
      Alcotest.failf
        "%s %d: fused outcome differs from the reference (bound %h vs %h, %d \
         vs %d iterations)"
        what index out.Lp.Pdhg.best_bound ref_out.Lp.Pdhg.best_bound
        out.Lp.Pdhg.iterations ref_out.Lp.Pdhg.iterations;
    let gap = (opt -. out.Lp.Pdhg.best_bound) /. scale in
    Alcotest.(check bool)
      (Printf.sprintf "%s %d: pdhg agrees (gap %.3e)" what index gap)
      true (gap <= agree_tol);
    Alcotest.(check bool)
      (Printf.sprintf "%s %d: pdhg bound below optimum" what index)
      true
      (out.Lp.Pdhg.best_bound -. opt <= duality_tol *. scale);
    (* Recomputing the certificate from the best dual iterate must again
       stay below the optimum: weak duality holds for ANY multiplier. *)
    let cert =
      Lp.Certificate.dual_bound
        (Lp.Problem.normalize_ge problem)
        ~y:out.Lp.Pdhg.best_y
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s %d: certificate below optimum" what index)
      true
      (cert -. opt <= duality_tol *. scale)

let eq_instances = 10

let test_dense_lps () =
  let rng = Util.Prng.create ~seed:77 in
  for index = 1 to instances do
    check_against_simplex ~what:"dense LP" ~index (random_dense_lp rng)
  done;
  let rng = Util.Prng.create ~seed:78 in
  for index = 1 to eq_instances do
    check_against_simplex ~what:"dense LP with an Eq row" ~index
      (random_dense_lp ~eq_rows:1 rng)
  done

(* --- random small MC-PERF instances ------------------------------------- *)

let mcperf_classes =
  [|
    Mcperf.Classes.general;
    Mcperf.Classes.storage_constrained;
    Mcperf.Classes.replica_constrained_uniform;
    Mcperf.Classes.decentralized_local_routing;
    Mcperf.Classes.cooperative_caching;
  |]

let test_mcperf_instances () =
  let solved = ref 0 in
  for seed = 0 to instances - 1 do
    let workload = if seed mod 2 = 0 then CS.Web else CS.Group in
    let nodes = 4 + (seed mod 3) in
    let cs =
      CS.make ~seed:(1000 + seed) ~nodes ~scale:0.002 ~intervals:4 workload
    in
    let fraction = if seed mod 3 = 0 then 0.9 else 0.95 in
    let spec = CS.qos_spec cs ~fraction ~for_bounds:true () in
    let cls = mcperf_classes.(seed mod Array.length mcperf_classes) in
    let perm = Mcperf.Permission.compute spec cls in
    (* Goal-infeasible draws (caching above its cold-miss ceiling) carry
       no LP to compare; the oracle's verdict is itself part of the
       pipeline and is exercised by test_bounds. *)
    if Mcperf.Permission.feasible perm then begin
      incr solved;
      let model = Mcperf.Model.build perm in
      check_against_simplex ~what:"mcperf" ~index:seed
        model.Mcperf.Model.problem
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough feasible instances (%d)" !solved)
    true (!solved >= 35)

(* --- presolve round-trip ------------------------------------------------- *)

(* Pin one variable of each random LP so presolve has something to
   eliminate, then check the whole chain in the original space: the
   reduced optimum plus [offset] equals the original optimum, [restore]
   yields an original-feasible point whose objective is that optimum, and
   a PDHG certificate computed on the reduced problem remains a valid
   original-space lower bound after the offset shift. This is exactly the
   contract the bounds pipeline relies on. *)
let test_presolve_roundtrip () =
  let rng = Util.Prng.create ~seed:177 in
  let solved = ref 0 in
  for index = 1 to instances do
    let p = random_dense_lp rng in
    let fix_j = index mod Lp.Problem.nvars p in
    let v = 0.5 *. p.Lp.Problem.upper.(fix_j) in
    let p = Lp.Problem.with_var_bounds p fix_j ~lo:v ~hi:v in
    match Lp.Simplex.solve p with
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
      (* Pinning can cut off the feasible region; nothing to compare. *)
      ()
    | Lp.Simplex.Optimal { objective = opt; _ } ->
      incr solved;
      let r = Lp.Presolve.run p in
      let scale = 1. +. Float.abs opt in
      Alcotest.(check bool)
        (Printf.sprintf "presolve %d: reduction happened" index)
        true
        (r.Lp.Presolve.status = `Reduced);
      let red = r.Lp.Presolve.reduced in
      let bound, x_red =
        if Lp.Problem.nvars red = 0 then (r.Lp.Presolve.offset, [||])
        else
          match Lp.Simplex.solve red with
          | Lp.Simplex.Optimal { x; objective } ->
            (objective +. r.Lp.Presolve.offset, x)
          | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
            Alcotest.failf "presolve %d: reduced problem unsolvable" index
      in
      Alcotest.(check bool)
        (Printf.sprintf "presolve %d: optimum preserved" index)
        true
        (Float.abs (bound -. opt) <= 1e-6 *. scale);
      let x = r.Lp.Presolve.restore x_red in
      Alcotest.(check bool)
        (Printf.sprintf "presolve %d: restored point feasible" index)
        true
        (Lp.Problem.max_violation p x <= 1e-6);
      Alcotest.(check bool)
        (Printf.sprintf "presolve %d: restored objective matches" index)
        true
        (Float.abs (Lp.Problem.objective_value p x -. bound) <= 1e-6 *. scale);
      if Lp.Problem.nvars red > 0 then begin
        let out = Lp.Pdhg.solve ~options:tight_pdhg red in
        let cert =
          Lp.Certificate.dual_bound
            (Lp.Problem.normalize_ge red)
            ~y:out.Lp.Pdhg.best_y
        in
        Alcotest.(check bool)
          (Printf.sprintf "presolve %d: shifted certificate below optimum"
             index)
          true
          (cert +. r.Lp.Presolve.offset -. opt <= duality_tol *. scale)
      end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough feasible pinned instances (%d)" !solved)
    true (!solved >= 35)

(* --- pinned simplex outcomes --------------------------------------------- *)

(* Golden files hold one "label md5" line per pinned value. *)
let read_golden path =
  let ic = open_in path in
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
  read []

let digest v = Digest.to_hex (Digest.string (bits v))

let lp_of vars rows =
  let b = Lp.Problem.Builder.create () in
  List.iter
    (fun (lo, hi, obj) -> ignore (Lp.Problem.Builder.add_var b ~lo ~hi ~obj ()))
    vars;
  List.iter
    (fun (kind, rhs, terms) -> Lp.Problem.Builder.add_row b kind ~rhs terms)
    rows;
  Lp.Problem.Builder.build b

(* LPs that reach the simplex's rarer branches, each with the verdict it
   must reach. *)
let hand_built_lps =
  let open Lp.Problem in
  [
    (* Beale's cycling example: ratio ties at a degenerate vertex. *)
    ( "beale",
      `Optimal,
      lp_of
        [ (0., 10., -0.75); (0., 10., 150.); (0., 10., -0.02); (0., 10., 6.) ]
        [
          (Le, 0., [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ]);
          (Le, 0., [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ]);
          (Le, 1., [ (2, 1.) ]);
        ] );
    (* A Le and a Ge row with negative rhs, flipped before phase 1. *)
    ( "negative-rhs",
      `Optimal,
      lp_of
        [ (0., 3., 2.); (0., 10., 3.) ]
        [
          (Le, -4., [ (0, -1.); (1, -1.) ]);
          (Ge, -2., [ (0, 1.); (1, -2.) ]);
        ] );
    (* Equality rows, one of them with a negative rhs. *)
    ( "equality-rows",
      `Optimal,
      lp_of
        [ (0., infinity, 1.); (0., infinity, -1.); (0., infinity, 2.);
          (0., 3., -1.) ]
        [
          (Eq, 4., [ (0, 1.); (1, 1.); (2, 1.); (3, 1.) ]);
          (Eq, 1., [ (0, 1.); (2, -1.) ]);
          (Eq, -0.5, [ (0, -1.); (1, 1.) ]);
        ] );
    (* Variables x, y, z, v. Phase 1 enters x on a ratio tie at 0 that
       the first row wins, and ends at value 0 with the second row's
       artificial still basic and its row reading -y - z, so the
       drive-out pivots on -1. *)
    ( "drive-out-negative",
      `Optimal,
      lp_of
        [ (0., 5., 1.); (0., 5., 1.); (0., 5., 1.); (0., 2., -1.) ]
        [
          (Eq, 0., [ (0, 1.); (1, -1.) ]);
          (Eq, 0., [ (0, 1.); (1, -2.); (2, -1.) ]);
          (Le, 3., [ (0, 1.); (3, 1.) ]);
        ] );
    (* x + y <= 1 and x + 2y >= 3 in the unit box: a Farkas ray. *)
    ( "infeasible-ray",
      `Infeasible,
      lp_of
        [ (0., 1., 1.); (0., 1., 1.) ]
        [ (Le, 1., [ (0, 1.); (1, 1.) ]); (Ge, 3., [ (0, 1.); (1, 2.) ]) ] );
    ( "unbounded",
      `Unbounded,
      lp_of
        [ (0., infinity, -1.); (0., infinity, 0.) ]
        [ (Le, 1., [ (0, 1.); (1, -1.) ]) ] );
  ]

let pinned_lps () =
  let rng = Util.Prng.create ~seed:77 in
  let dense = ref [] in
  for index = 1 to instances do
    dense := (Printf.sprintf "dense-lp/%d" index, random_dense_lp rng) :: !dense
  done;
  List.rev !dense
  @ List.map (fun (label, _, p) -> (label, p)) hand_built_lps

(* Every field of the certified outcome (x, objective, duals, Farkas ray)
   pinned bit for bit, so a change to the pivot arithmetic that moves any
   reported value shows. *)
let test_pinned_simplex () =
  List.iter
    (fun (label, verdict, p) ->
      let got =
        match Lp.Simplex.solve_certified p with
        | Lp.Simplex.Cert_optimal _ -> `Optimal
        | Lp.Simplex.Cert_infeasible _ -> `Infeasible
        | Lp.Simplex.Cert_unbounded -> `Unbounded
      in
      Alcotest.(check bool) (label ^ ": verdict") true (got = verdict))
    hand_built_lps;
  Alcotest.(check (list (pair string string)))
    "every outcome matches its pinned digest"
    (read_golden "fixtures/simplex_outcomes.golden")
    (List.map
       (fun (label, p) -> (label, digest (Lp.Simplex.solve_certified p)))
       (pinned_lps ()));
  (* A prepared tableau re-solved under another objective first (the
     negated one) must give the cold outcome under its own, bit for bit:
     each re-solve starts from the prepared state, not from the last
     solve's. *)
  Alcotest.(check (list (pair string string)))
    "every re-solved outcome matches its pinned digest"
    (read_golden "fixtures/simplex_outcomes.golden")
    (List.map
       (fun (label, (p : Lp.Problem.t)) ->
         let pr = Lp.Simplex.prepare p in
         let own = Array.copy p.objective in
         Array.iteri (fun j c -> p.objective.(j) <- -.c) own;
         ignore (Lp.Simplex.solve_prepared pr);
         Array.blit own 0 p.objective 0 (Array.length own);
         (label, digest (Lp.Simplex.solve_prepared pr)))
       (pinned_lps ()))

(* --- pinned PDHG outcomes -------------------------------------------------- *)

(* Never converges (rel_tol 0), so it crosses two restarts (every 1,000
   iterations) and stops between two checkpoints (every 50). *)
let budget_pdhg =
  { Lp.Pdhg.default_options with max_iters = 2_517; rel_tol = 0. }

(* The presolved LPs that perfbench's [cells] workload hands to PDHG for
   its storage-constrained and replica-constrained-uniform cells at QoS
   0.99, one per case study. *)
let cells_lps () =
  List.concat_map
    (fun (wname, cs) ->
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
      List.map
        (fun (cls : Mcperf.Classes.t) ->
          let model = Mcperf.Model.build (Mcperf.Permission.compute spec cls) in
          ( Printf.sprintf "%s/%s@0.99" wname cls.Mcperf.Classes.name,
            (Lp.Presolve.run model.Mcperf.Model.problem).Lp.Presolve.reduced ))
        Mcperf.Classes.[ storage_constrained; replica_constrained_uniform ])
    [
      ("web", CS.make ~nodes:10 ~scale:0.006 ~intervals:12 CS.Web);
      ("group", CS.make ~nodes:10 ~scale:0.005 ~intervals:12 CS.Group);
    ]

(* A NaN rhs on one row, as the pipeline's [inject_nan] poisons row 0. *)
let poison row p = Lp.Problem.with_rhs p [ (row, Float.nan) ]

let pinned_pdhg_runs () =
  let first k l = List.filteri (fun i _ -> i < k) l in
  let dense = first instances (pinned_lps ()) in
  let rng = Util.Prng.create ~seed:78 in
  let eq = ref [] in
  for index = 1 to eq_instances do
    eq :=
      (Printf.sprintf "dense-eq-lp/%d" index, random_dense_lp ~eq_rows:1 rng)
      :: !eq
  done;
  let eq = List.rev !eq in
  let cells = cells_lps () in
  let web_sc = List.assoc "web/storage-constrained@0.99" cells in
  let eq1 = List.assoc "dense-eq-lp/1" eq in
  let runs prefix options = List.map (fun (l, p) -> (prefix ^ l, options, p)) in
  runs "" tight_pdhg (dense @ eq)
  @ runs "default/" Lp.Pdhg.default_options
      (first 5 dense @ first 5 eq
      @ [
          ( "group/storage-constrained@0.99",
            List.assoc "group/storage-constrained@0.99" cells );
        ])
  @ runs "cells/" Bounds.Pipeline.default_pdhg_options cells
  @ runs "budget/" budget_pdhg
      [ ("web/storage-constrained@0.99", web_sc); ("dense-eq-lp/1", eq1) ]
  @ runs "nan-rhs/" budget_pdhg
      [
        ("web/storage-constrained@0.99", poison 0 web_sc);
        ("dense-eq-lp/1-eq-row", poison (Lp.Problem.nrows eq1 - 1) eq1);
      ]

(* The whole outcome of every run (iterates, duals, best bound and dual,
   counts, stop reason), pinned bit for bit against the four-pass kernel
   the two-sweep one replaced: seeded dense LPs with and without an Eq
   row, the default options, perfbench's cell LPs under the pipeline's
   options, a budget that stops between checkpoints after two restarts,
   and NaN right-hand sides on a Ge row and on an Eq row. *)
let test_pinned_pdhg () =
  Alcotest.(check (list (pair string string)))
    "every outcome matches its pinned digest"
    (read_golden "fixtures/pdhg_outcomes.golden")
    (List.map
       (fun (label, options, p) -> (label, digest (Lp.Pdhg.solve ~options p)))
       (pinned_pdhg_runs ()))

(* A prepared image re-solved after its problem's objective is rewritten
   in place, as the Lagrangian re-prices its subproblems between solves:
   the kernel must read the live objective array, so each re-solve equals
   a fresh solve of the mutated problem, by the kernel and by the
   reference alike. A kernel that copied the objective at [prepare] time
   would solve the old prices. *)
let test_pdhg_repriced () =
  let repricings =
    [
      ("negated", fun c -> Array.iteri (fun j v -> c.(j) <- -.v) c);
      ( "perturbed",
        fun c ->
          Array.iteri
            (fun j v -> c.(j) <- v *. (1. +. (0.25 *. float (j mod 3))))
            c );
    ]
  in
  List.iter
    (fun (what, options, (p : Lp.Problem.t)) ->
      let pr = Lp.Pdhg.prepare p in
      ignore (Lp.Pdhg.solve_prepared ~options pr);
      List.iter
        (fun (how, reprice) ->
          reprice p.objective;
          let label = Printf.sprintf "%s, %s" what how in
          let got = digest (Lp.Pdhg.solve_prepared ~options pr) in
          Alcotest.(check string)
            (label ^ ": equals a fresh solve")
            (digest (Lp.Pdhg.solve ~options p))
            got;
          Alcotest.(check string)
            (label ^ ": equals the reference")
            (digest (Lp.Pdhg.solve_reference ~options p))
            got)
        repricings)
    [
      ("dense LP", tight_pdhg, random_dense_lp (Util.Prng.create ~seed:77));
      ( "web/storage-constrained@0.99",
        budget_pdhg,
        List.assoc "web/storage-constrained@0.99" (cells_lps ()) );
    ]

(* The shapes where a kernel reading OCaml blocks goes wrong: no rows (the
   dual is the empty array), no variables, a column in no row, a row with
   no coefficients, and a one-variable Eq row. The kernel's outcome must
   equal the reference's bit for bit under a budget that stops between
   checkpoints and under the tight options. *)
let test_pdhg_degenerate_shapes () =
  let open Lp.Problem in
  let shapes =
    [
      ("bounds only", lp_of [ (0., 2., 1.); (-1., 3., -2.); (1., 1., 0.5) ] []);
      ("no variables", lp_of [] []);
      ( "column in no row",
        lp_of
          [ (0., 4., 1.); (0., 5., 2.); (-2., 3., -1.) ]
          [ (Ge, 2., [ (0, 1.); (1, 1.) ]); (Le, 6., [ (0, 2.); (1, -1.) ]) ] );
      ( "empty rows",
        lp_of
          [ (0., 4., 1.); (0., 5., 2.) ]
          [ (Ge, -1., []); (Ge, 3., [ (0, 1.); (1, 2.) ]); (Le, 2., []) ] );
      ("one-variable Eq row", lp_of [ (0., 4., 3.) ] [ (Eq, 3., [ (0, 2.) ]) ]);
    ]
  in
  List.iter
    (fun (what, p) ->
      List.iter
        (fun (opts, options) ->
          Alcotest.(check string)
            (Printf.sprintf "%s under %s: kernel equals the reference" what opts)
            (digest (Lp.Pdhg.solve_reference ~options p))
            (digest (Lp.Pdhg.solve ~options p)))
        [ ("budget", budget_pdhg); ("tight", tight_pdhg) ])
    shapes

(* --- parallel-sweep determinism ------------------------------------------ *)

(* The quickstart scenario: six sites, a Zipf workload, a 99% QoS goal. *)
let quickstart_spec () =
  let graph =
    Topology.Graph.of_edges 6
      [
        (0, 1, 120.);
        (0, 2, 140.);
        (0, 3, 180.);
        (3, 4, 110.);
        (4, 5, 130.);
        (1, 2, 100.);
      ]
  in
  let system = Topology.System.make graph in
  let rng = Util.Prng.create ~seed:42 in
  let trace =
    Workload.Synthesize.web ~rng
      {
        Workload.Synthesize.web_spec with
        nodes = 6;
        objects = 40;
        total_requests = 5_000;
        max_object_requests = 600;
        min_object_requests = 1;
      }
  in
  let demand = Workload.Demand.of_trace ~intervals:12 trace in
  Mcperf.Spec.make ~system ~demand
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.99 })
    ()

let sweep_fixture =
  [
    ("general", Mcperf.Classes.general);
    ("storage-constrained", Mcperf.Classes.storage_constrained);
    ("replica-constrained", Mcperf.Classes.replica_constrained_uniform);
  ]

let figure_of jobs =
  Figure.run ~jobs
    {
      Figure.name = "sweep";
      sweep_name = "sweep";
      title = "sweep";
      timing_title = "sweep";
      spec = quickstart_spec ();
      placeable = None;
      points = [ 0.95; 0.99; 0.999 ];
      classes = sweep_fixture;
      heuristics = [];
    }

(* What a figure computed, with every clock zeroed, as bytes: it must not
   depend on how its cells were distributed. [No_sharing]: values that
   crossed a worker pipe lose the block sharing of values built in one
   process, which plain [Marshal] would encode. *)
let without_clocks (fig : Figure.t) =
  let cell (c : _ Figure.cell) = { c with Figure.wall_s = 0. } in
  let sweep (s : Figure.sweep) = { s with Figure.elapsed_s = 0. } in
  Marshal.to_string
    ( List.map
        (fun (b : Figure.bound) ->
          { b with Figure.cells = List.map cell b.Figure.cells })
        fig.Figure.bounds,
      sweep fig.Figure.bound_sweep,
      List.map
        (fun (d : Figure.deployed) ->
          {
            d with
            Figure.outcomes = List.map cell d.Figure.outcomes;
            deploy_sweep = sweep d.Figure.deploy_sweep;
          })
        fig.Figure.deployed )
    [ Marshal.No_sharing ]

let test_sweep_determinism () =
  let seq = figure_of 1 in
  let par = figure_of 4 in
  (* The rendered report must be byte-identical, and so must everything
     under it except the wall-clock fields. *)
  Alcotest.(check string)
    "csv report byte-identical"
    (Report.csv_of_figure seq) (Report.csv_of_figure par);
  Alcotest.(check bool)
    "results identical (incl. iterations and placements)" true
    (String.equal (without_clocks seq) (without_clocks par))

(* The tree figure — bound cells and the proportional heuristic's
   deployed column alike — is the same at every worker count, and renders
   the CSV an earlier build wrote. *)
let test_figtree_jobs_identical () =
  let fig jobs = Figure.run ~jobs (Figure.figtree ~seed:2004) in
  let seq = fig 1 and par = fig 2 in
  Alcotest.(check bool)
    "jobs 1 and jobs 2 equal apart from clocks" true
    (String.equal (without_clocks seq) (without_clocks par));
  let ic = open_in_bin "fixtures/figtree-n24-s2004.csv" in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "committed CSV" committed (Report.csv_of_figure par)

(* A complete binary tree inside the tree DP's exact scope: its general
   cells take the tree-DP branch of the cell chain. *)
let tree_spec () =
  (Replica_select.Tree_scenario.make ~seed:5 ~objects:3
     (Replica_select.Tree_scenario.Balanced { fanout = 2; depth = 2 }))
    .Replica_select.Tree_scenario.spec

let at_fraction spec fraction =
  match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Qos { tlat_ms; _ } ->
    { spec with Mcperf.Spec.goal = Mcperf.Spec.Qos { tlat_ms; fraction } }
  | Mcperf.Spec.Avg_latency _ -> invalid_arg "at_fraction"

(* The sweep runs the same cell chain as [compute] and carries nothing
   from one cell to the next, so each of its cells must equal what
   per-cell [compute] produces from scratch. The path tags show the LP,
   Farkas and tree-DP branches all ran. *)
let test_sweep_matches_percell_compute () =
  let fractions = [ 0.95; 0.99; 0.999 ] in
  let paths cells =
    List.map
      (fun (_, (r : Bounds.Pipeline.t)) ->
        Bounds.Pipeline.path_label r.Bounds.Pipeline.solve_path)
      cells
  in
  let sweep spec classes =
    let sweep =
      Bounds.Pipeline.sweep_classes Bounds.Pipeline.Sweep_config.default spec
        ~fractions classes
    in
    List.concat
      (List.map2
         (fun (label, cls) (label', cells) ->
           Alcotest.(check string) "class order preserved" label label';
           List.iter
             (fun (fraction, (r : Bounds.Pipeline.t)) ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s @ %g: sweep cell equals direct compute"
                    label fraction)
                 true
                 (r = Bounds.Pipeline.compute (at_fraction spec fraction) cls))
             cells;
           paths cells)
         classes sweep.Bounds.Pipeline.per_class)
  in
  let spec = quickstart_spec () in
  Alcotest.(check (list string))
    "quickstart sweep paths"
    (List.init 10 (fun _ -> "pdhg") @ [ "infeasible"; "infeasible" ])
    (sweep spec (sweep_fixture @ [ ("caching", Mcperf.Classes.caching) ]));
  Alcotest.(check (list string))
    "tree sweep paths" [ "tree-dp"; "tree-dp"; "tree-dp" ]
    (sweep (tree_spec ()) [ ("general", Mcperf.Classes.general) ])

(* --- golden cells -------------------------------------------------------- *)

(* Cells pinned against an earlier build, one "label md5" line each in
   fixtures/pipeline_cells.golden; the MD5 is taken over the cell
   marshaled without sharing, so any change to any field — bound, rounded
   placement, certificate, path, quality — shows. The branches of the
   cell chain the set reaches: PDHG under [Auto] for five classes at
   three QoS goals (caching only at 0.95), the oracle-infeasible Farkas
   branch (caching at 0.99 and 0.999), the exact tree DP, the
   average-latency rounding, and the exact simplex with its duals for
   two classes at three QoS goals. The presolve-only and PDHG-retry
   paths are not reached here. *)
let golden_cells () =
  let spec = quickstart_spec () in
  let exact =
    List.concat_map
      (fun (cls : Mcperf.Classes.t) ->
        List.map
          (fun fraction ->
            let label =
              Printf.sprintf "quickstart-exact/%s@%g" cls.Mcperf.Classes.name
                fraction
            in
            ( label,
              fun () ->
                let cell =
                  Bounds.Pipeline.compute
                    ~solver:Bounds.Pipeline.Exact_simplex
                    (at_fraction spec fraction) cls
                in
                Alcotest.(check string)
                  (label ^ ": path") "simplex"
                  (Bounds.Pipeline.path_label cell.Bounds.Pipeline.solve_path);
                cell ))
          [ 0.95; 0.99; 0.999 ])
      Mcperf.Classes.[ general; decentralized_local_routing ]
  in
  let qos =
    List.concat_map
      (fun (cls : Mcperf.Classes.t) ->
        List.map
          (fun fraction ->
            ( Printf.sprintf "quickstart/%s@%g" cls.Mcperf.Classes.name
                fraction,
              fun () -> Bounds.Pipeline.compute (at_fraction spec fraction) cls
            ))
          [ 0.95; 0.99; 0.999 ])
      Mcperf.Classes.
        [
          general;
          storage_constrained;
          replica_constrained_uniform;
          caching;
          decentralized_local_routing;
        ]
  in
  qos
  @ [
      ( "tree-balanced-2x2-seed5/general",
        fun () -> Bounds.Pipeline.compute (tree_spec ()) Mcperf.Classes.general
      );
      ( "quickstart/general@avg100",
        fun () ->
          Bounds.Pipeline.compute
            {
              spec with
              Mcperf.Spec.goal = Mcperf.Spec.Avg_latency { tavg_ms = 100. };
            }
            Mcperf.Classes.general );
    ]
  @ exact

let test_golden_cells () =
  Alcotest.(check (list (pair string string)))
    "every cell matches its pinned digest"
    (read_golden "fixtures/pipeline_cells.golden")
    (List.map (fun (label, cell) -> (label, digest (cell ()))) (golden_cells ()))

(* --- pinned MC-PERF problems ---------------------------------------------- *)

(* [Mcperf.Model.build] outputs pinned against an earlier build, one
   "label md5" line each in fixtures/model_problems.golden. The MD5 is
   taken over the problem, the variable kinds, the objective offset and
   both per-node vectors marshaled without sharing, so a change to any
   variable, row, coefficient bit or their order shows. The set reaches
   every block of the model: storage constrained uniform and per node,
   replicas per object and uniform, node opening, both goals, the penalty
   (gamma) and update (delta) terms, and a placement restriction. The
   update term reads writes, which the quickstart demand has none of:
   [writes_spec] buckets fixtures/golden.trace (two writes) on a
   three-node line whose far end is the origin. *)
let writes_spec costs =
  let trace =
    match
      Workload.Trace_io.parse
        (In_channel.with_open_bin "fixtures/golden.trace" In_channel.input_all)
    with
    | Ok t -> t
    | Error e -> Alcotest.fail (Util.Parse_error.to_string e)
  in
  Mcperf.Spec.make
    ~system:
      (Topology.System.make ~origin:2
         (Topology.Graph.of_edges 3 [ (0, 1, 100.); (1, 2, 100.) ]))
    ~demand:(Workload.Demand.of_trace ~intervals:4 trace)
    ~costs
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.9 })
    ()

let model_problems () =
  let qs = quickstart_spec () in
  let costs (f : Mcperf.Spec.costs -> Mcperf.Spec.costs) =
    { qs with Mcperf.Spec.costs = f Mcperf.Spec.default_costs }
  in
  let avg = { qs with Mcperf.Spec.goal = Mcperf.Spec.Avg_latency { tavg_ms = 100. } } in
  let gamma = costs (fun c -> { c with gamma = 0.01 }) in
  let zeta = costs (fun c -> { c with zeta = 5. }) in
  let delta =
    writes_spec { Mcperf.Spec.default_costs with Mcperf.Spec.delta = 0.5 }
  in
  let delta_gamma =
    writes_spec
      { Mcperf.Spec.default_costs with Mcperf.Spec.delta = 0.5; gamma = 0.01 }
  in
  let placeable = [| true; true; false; true; false; true |] in
  let open Mcperf.Classes in
  let cases =
    List.map
      (fun cls -> ("quickstart", qs, cls, None))
      [
        general;
        storage_constrained;
        storage_constrained_per_node;
        replica_constrained;
        replica_constrained_uniform;
        decentralized_local_routing;
        allow_intra_interval_reaction caching;
      ]
    @ [
        ("quickstart@0.95", at_fraction qs 0.95, general, None);
        ("quickstart@avg100", avg, general, None);
        ("quickstart@avg100", avg, storage_constrained, None);
        ("quickstart@avg100", avg, replica_constrained, None);
        ("quickstart/gamma", gamma, general, None);
        ("quickstart/gamma", gamma, replica_constrained_uniform, None);
        ("quickstart/zeta", zeta, general, None);
        ("quickstart/zeta", zeta, storage_constrained_per_node, None);
        ("quickstart/placeable", qs, general, Some placeable);
        ("quickstart/placeable", qs, storage_constrained, Some placeable);
        ("golden-trace/delta", delta, general, None);
        ("golden-trace/delta", delta, replica_constrained, None);
        ("golden-trace/delta", delta, storage_constrained, None);
        ("golden-trace/delta+gamma", delta_gamma, general, None);
      ]
  in
  List.map
    (fun (name, spec, cls, placeable) ->
      let m = Mcperf.Model.build (Mcperf.Permission.compute ?placeable spec cls) in
      ( Printf.sprintf "%s/%s" name cls.name,
        Mcperf.Model.(
          digest
            ( m.problem,
              m.kinds,
              m.objective_offset,
              m.node_totals,
              m.always_covered )) ))
    cases

let test_model_problems () =
  Alcotest.(check (list (pair string string)))
    "every problem matches its pinned digest"
    (read_golden "fixtures/model_problems.golden")
    (model_problems ())

let () =
  Alcotest.run "differential"
    [
      ( "lp-stack",
        [
          Alcotest.test_case "random dense LPs: simplex vs pdhg vs certificate"
            `Quick test_dense_lps;
          Alcotest.test_case
            "random MC-PERF instances: simplex vs pdhg vs certificate" `Quick
            test_mcperf_instances;
          Alcotest.test_case "presolve round-trip on pinned random LPs" `Quick
            test_presolve_roundtrip;
          Alcotest.test_case "simplex outcomes match pinned digests" `Quick
            test_pinned_simplex;
          Alcotest.test_case "pdhg outcomes match pinned digests" `Quick
            test_pinned_pdhg;
          Alcotest.test_case "pdhg re-priced prepared image" `Quick
            test_pdhg_repriced;
          Alcotest.test_case "pdhg degenerate shapes match the reference"
            `Quick test_pdhg_degenerate_shapes;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "cached sweep equals per-cell compute" `Quick
            test_sweep_matches_percell_compute;
          Alcotest.test_case "cells match pinned digests" `Quick
            test_golden_cells;
          Alcotest.test_case "MC-PERF problems match pinned digests" `Quick
            test_model_problems;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel sweep byte-identical to sequential"
            `Quick test_sweep_determinism;
          Alcotest.test_case "tree figure identical across jobs" `Quick
            test_figtree_jobs_identical;
        ] );
    ]
