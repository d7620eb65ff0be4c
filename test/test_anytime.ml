(* Tests for graceful degradation under deadlines: the anytime PDHG
   bound (truncated runs are valid and monotone in the budget), Farkas
   infeasibility certificates (emitted rays verify, tampered rays are
   rejected), simplex dual certificates, and the sweep-level time
   governor (budgeted sweeps keep valid, certify-able bounds). *)

let check_float name ?(eps = 1e-6) expected actual =
  if not (Util.Vecops.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

(* --- LP construction helpers (same shapes as test_lp) ----------------- *)

let build_problem vars rows =
  let b = Lp.Problem.Builder.create () in
  List.iter
    (fun (_label, lo, hi, obj) ->
      ignore (Lp.Problem.Builder.add_var b ~lo ~hi ~obj ()))
    vars;
  List.iter
    (fun (kind, rhs, terms) -> Lp.Problem.Builder.add_row b kind ~rhs terms)
    rows;
  Lp.Problem.Builder.build b

(* Random LPs built around a known interior point so they are feasible by
   construction; every variable gets finite bounds so both PDHG and the
   certificate evaluator accept them. *)
let random_feasible_lp rng ~nvars ~nrows =
  let b = Lp.Problem.Builder.create () in
  let x0 = Array.init nvars (fun _ -> Util.Prng.float rng 5.) in
  for j = 0 to nvars - 1 do
    ignore
      (Lp.Problem.Builder.add_var b ~lo:0. ~hi:(5. +. Util.Prng.float rng 5.)
         ~obj:(Util.Prng.uniform rng ~lo:0.1 ~hi:3.)
         ());
    ignore j
  done;
  for _ = 1 to nrows do
    let terms = ref [] in
    let activity = ref 0. in
    for j = 0 to nvars - 1 do
      if Util.Prng.float rng 1. < 0.6 then begin
        let v = Util.Prng.uniform rng ~lo:(-1.) ~hi:2. in
        terms := (j, v) :: !terms;
        activity := !activity +. (v *. x0.(j))
      end
    done;
    if !terms <> [] then
      Lp.Problem.Builder.add_row b Lp.Problem.Ge
        ~rhs:(!activity -. Util.Prng.float rng 1.)
        !terms
  done;
  Lp.Problem.Builder.build b

(* A provably infeasible variant: append a Ge row whose left-hand side
   cannot reach the rhs anywhere in the (finite) variable box. *)
let random_infeasible_lp rng ~nvars ~nrows =
  let p = random_feasible_lp rng ~nvars ~nrows in
  let b = Lp.Problem.Builder.create () in
  let sup = ref 0. in
  for j = 0 to p.Lp.Problem.nvars - 1 do
    ignore
      (Lp.Problem.Builder.add_var b ~lo:p.Lp.Problem.lower.(j)
         ~hi:p.Lp.Problem.upper.(j) ~obj:p.Lp.Problem.objective.(j) ());
    sup := !sup +. p.Lp.Problem.upper.(j)
  done;
  Array.iter
    (fun (row : Lp.Problem.row) ->
      Lp.Problem.Builder.add_row b row.Lp.Problem.kind ~rhs:row.Lp.Problem.rhs
        (Array.to_list row.Lp.Problem.coeffs))
    p.Lp.Problem.rows;
  let all = List.init p.Lp.Problem.nvars (fun j -> (j, 1.)) in
  Lp.Problem.Builder.add_row b Lp.Problem.Ge ~rhs:(!sup +. 1.) all;
  Lp.Problem.Builder.build b

let simplex_optimum p =
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal { objective; _ } -> objective
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"

(* --- anytime PDHG: truncation is valid and monotone -------------------- *)

(* Budgets are multiples of check_every, so each run's checkpoint set is a
   prefix of the next run's: best_bound must be nondecreasing in the
   budget and always below the exact optimum. *)
let prop_anytime_bound_monotone =
  QCheck2.Test.make ~count:20
    ~name:"anytime PDHG bound: monotone in iteration budget, <= optimum"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 11) in
      let nvars = 2 + Util.Prng.int rng 6 in
      let nrows = 1 + Util.Prng.int rng 6 in
      let p = random_feasible_lp rng ~nvars ~nrows in
      let opt = simplex_optimum p in
      let bound_at max_iters =
        let options =
          { Lp.Pdhg.default_options with max_iters; rel_tol = 1e-7 }
        in
        (Lp.Pdhg.solve ~options p).Lp.Pdhg.best_bound
      in
      let bounds = List.map bound_at [ 50; 200; 1_000; 20_000 ] in
      let monotone =
        List.for_all2
          (fun lo hi -> lo <= hi +. 1e-9)
          (List.filteri (fun i _ -> i < 3) bounds)
          (List.tl bounds)
      in
      monotone && List.for_all (fun b -> b <= opt +. 1e-5) bounds)

let test_deadline_zero_still_bounds () =
  (* With a zero wall-clock budget the solver must stop at its first
     checkpoint with stop = Deadline — and that truncated bound is still a
     finite, valid lower bound. *)
  let rng = Util.Prng.create ~seed:42 in
  let p = random_feasible_lp rng ~nvars:40 ~nrows:40 in
  let opt = simplex_optimum p in
  let options =
    { Lp.Pdhg.default_options with rel_tol = 1e-12; deadline_s = 0. }
  in
  let out = Lp.Pdhg.solve ~options p in
  (match out.Lp.Pdhg.stop with
  | Lp.Pdhg.Deadline -> ()
  | s -> Alcotest.failf "expected Deadline stop, got %s" (Lp.Pdhg.stop_label s));
  Alcotest.(check bool) "stopped at first checkpoint" true
    (out.Lp.Pdhg.iterations <= Lp.Pdhg.default_options.Lp.Pdhg.check_every);
  Alcotest.(check bool) "bound finite" true
    (Float.is_finite out.Lp.Pdhg.best_bound);
  Alcotest.(check bool) "bound valid" true
    (out.Lp.Pdhg.best_bound <= opt +. 1e-6);
  (* The truncated bound is a checkpoint of the unconstrained run, so the
     full run can only improve on it. *)
  let full =
    Lp.Pdhg.solve
      ~options:{ Lp.Pdhg.default_options with max_iters = 50_000 }
      p
  in
  Alcotest.(check bool) "full run dominates" true
    (out.Lp.Pdhg.best_bound <= full.Lp.Pdhg.best_bound +. 1e-9)

(* --- Farkas certificates ----------------------------------------------- *)

let test_farkas_unit () =
  (* x in [0,1] but x >= 2: the unit ray on that row proves it. *)
  let p =
    build_problem [ ("x", 0., 1., 1.) ] [ (Lp.Problem.Ge, 2., [ (0, 1.) ]) ]
  in
  let norm = Lp.Problem.normalize_ge p in
  (match Lp.Certificate.row_farkas norm with
  | None -> Alcotest.fail "row_farkas missed a one-row contradiction"
  | Some ray ->
    Alcotest.(check bool) "emitted ray accepted" true
      (Lp.Certificate.check_farkas norm ~ray);
    let neg = Array.map (fun v -> -.v) ray in
    Alcotest.(check bool) "negated ray rejected" false
      (Lp.Certificate.check_farkas norm ~ray:neg));
  Alcotest.(check bool) "zero ray rejected" false
    (Lp.Certificate.check_farkas norm ~ray:(Array.make 1 0.));
  Alcotest.(check bool) "NaN ray rejected" false
    (Lp.Certificate.check_farkas norm ~ray:[| Float.nan |]);
  Alcotest.(check bool) "wrong dimension rejected" false
    (Lp.Certificate.check_farkas norm ~ray:[| 1.; 1. |])

let prop_feasible_lp_rejects_all_rays =
  (* Soundness: on a feasible problem no ray whatsoever may be accepted —
     a positive margin would "prove" infeasibility of a feasible LP. *)
  QCheck2.Test.make ~count:60
    ~name:"check_farkas rejects every ray on feasible problems"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 23) in
      let nvars = 2 + Util.Prng.int rng 5 in
      let nrows = 1 + Util.Prng.int rng 5 in
      let p = random_feasible_lp rng ~nvars ~nrows in
      let norm = Lp.Problem.normalize_ge p in
      let m = Lp.Problem.nrows norm in
      let ok = ref true in
      for _ = 1 to 10 do
        let ray =
          Array.init m (fun _ -> Util.Prng.uniform rng ~lo:(-2.) ~hi:2.)
        in
        if Lp.Certificate.check_farkas norm ~ray then ok := false
      done;
      !ok)

let prop_infeasible_lp_certified =
  (* Completeness on the constructed family: the simplex phase-1 ray and
     the single-row scan must both verify, and tampering must break it. *)
  QCheck2.Test.make ~count:40
    ~name:"emitted Farkas rays verify; tampered rays are rejected"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 37) in
      let nvars = 2 + Util.Prng.int rng 5 in
      let nrows = 1 + Util.Prng.int rng 5 in
      let p = random_infeasible_lp rng ~nvars ~nrows in
      let norm = Lp.Problem.normalize_ge p in
      let row_ok =
        match Lp.Certificate.row_farkas norm with
        | Some ray -> Lp.Certificate.check_farkas norm ~ray
        | None -> false
      in
      match Lp.Simplex.solve_certified p with
      | Lp.Simplex.Cert_infeasible { ray } ->
        row_ok
        && Lp.Certificate.check_farkas norm ~ray
        && not
             (Lp.Certificate.check_farkas norm
                ~ray:(Array.map (fun v -> -.v) ray))
      | Cert_optimal _ | Cert_unbounded -> false)

let prop_simplex_dual_reproduces_optimum =
  (* The Cert_optimal multipliers, replayed through the pure-arithmetic
     dual_bound on the normalized problem, must reproduce the optimum —
     this is exactly what Pipeline.certify replays for exact cells. *)
  QCheck2.Test.make ~count:60
    ~name:"simplex dual certificate reproduces the optimum"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 53) in
      let nvars = 2 + Util.Prng.int rng 6 in
      let nrows = 1 + Util.Prng.int rng 6 in
      let p = random_feasible_lp rng ~nvars ~nrows in
      match Lp.Simplex.solve_certified p with
      | Lp.Simplex.Cert_optimal { objective; dual; _ } ->
        let bound =
          Lp.Certificate.dual_bound (Lp.Problem.normalize_ge p) ~y:dual
        in
        Float.abs (bound -. objective) <= 1e-6 *. (1. +. Float.abs objective)
      | Cert_infeasible _ | Cert_unbounded -> false)

(* --- pipeline certificates and the sweep governor ---------------------- *)

let cell n i c : Workload.Demand.cell = { node = n; interval = i; count = c }

let line_system () =
  let g =
    Topology.Graph.of_edges 4 [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ]
  in
  Topology.System.make ~origin:0 g

let tail_demand () =
  Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
    ~reads:[| [| cell 3 0 10.; cell 3 1 10.; cell 3 2 10.; cell 3 3 10. |] |]
    ()

let qos_spec ?(fraction = 1.0) () =
  Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction })
    ()

let test_certify_roundtrip () =
  let spec = qos_spec () in
  let r = Bounds.Pipeline.compute spec Mcperf.Classes.general in
  (match Bounds.Pipeline.certify spec Mcperf.Classes.general r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh feasible cell failed recheck: %s" e);
  (* A tampered bound must no longer match its dual witness. *)
  let forged =
    { r with Bounds.Pipeline.lower_bound = r.Bounds.Pipeline.lower_bound +. 1. }
  in
  (match Bounds.Pipeline.certify spec Mcperf.Classes.general forged with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered bound passed the recheck");
  (* Cells without a witness are reported, not silently accepted. *)
  let stripped = { r with Bounds.Pipeline.certificate = None } in
  match Bounds.Pipeline.certify spec Mcperf.Classes.general stripped with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing certificate passed the recheck"

let test_certify_infeasible_cell () =
  (* Caching at 100% QoS is infeasible on the fixture (cold-miss ceiling
     0.75); the cell must carry a Farkas ray that rechecks from scratch. *)
  let spec = qos_spec () in
  let r = Bounds.Pipeline.compute spec Mcperf.Classes.caching in
  Alcotest.(check bool) "infeasible" false r.Bounds.Pipeline.feasible;
  (match r.Bounds.Pipeline.certificate with
  | Some (Bounds.Pipeline.Farkas _) -> ()
  | Some (Bounds.Pipeline.Dual _) -> Alcotest.fail "expected a Farkas ray"
  | None -> Alcotest.fail "infeasible cell carries no certificate");
  (match Bounds.Pipeline.certify spec Mcperf.Classes.caching r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Farkas recheck failed: %s" e);
  match r.Bounds.Pipeline.certificate with
  | Some (Bounds.Pipeline.Farkas ray) ->
    let forged =
      {
        r with
        Bounds.Pipeline.certificate =
          Some (Bounds.Pipeline.Farkas (Array.map (fun v -> -.v) ray));
      }
    in
    (match Bounds.Pipeline.certify spec Mcperf.Classes.caching forged with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "negated ray passed the recheck")
  | _ -> ()

let sweep_fixture =
  [
    ("general", Mcperf.Classes.general);
    ("caching", Mcperf.Classes.caching);
  ]

let sweep_fractions = [ 0.7; 0.9; 1.0 ]

(* Force the first-order solver so the time governor has something to
   truncate; a tight tolerance keeps the unconstrained run from
   converging inside the very first checkpoint block. *)
let fo_solver =
  Bounds.Pipeline.First_order
    { Lp.Pdhg.default_options with max_iters = 40_000; rel_tol = 1e-9 }

let test_budgeted_sweep_bounds_dominated () =
  let spec = qos_spec () in
  let free =
    Bounds.Pipeline.sweep_classes
      { Bounds.Pipeline.Sweep_config.default with solver = fo_solver }
      spec ~fractions:sweep_fractions sweep_fixture
  in
  let tight =
    Bounds.Pipeline.sweep_classes
      {
        Bounds.Pipeline.Sweep_config.default with
        solver = fo_solver;
        cell_budget_s = 1e-4;
      }
      spec ~fractions:sweep_fractions sweep_fixture
  in
  List.iter2
    (fun (label, fs) (label', ts) ->
      Alcotest.(check string) "class order" label label';
      List.iter2
        (fun (q, (f : Bounds.Pipeline.t)) (q', (t : Bounds.Pipeline.t)) ->
          check_float "same fraction" ~eps:1e-12 q q';
          Alcotest.(check bool)
            (Printf.sprintf "%s@%g feasibility agrees" label q)
            f.Bounds.Pipeline.feasible t.Bounds.Pipeline.feasible;
          if f.Bounds.Pipeline.feasible then
            (* Truncation stops at an earlier checkpoint of the same
               deterministic iterate stream: looser, never invalid. *)
            Alcotest.(check bool)
              (Printf.sprintf "%s@%g degraded bound dominated" label q)
              true
              (t.Bounds.Pipeline.lower_bound
              <= f.Bounds.Pipeline.lower_bound
                 +. 1e-6 *. (1. +. Float.abs f.Bounds.Pipeline.lower_bound)))
        fs ts)
    free.Bounds.Pipeline.per_class tight.Bounds.Pipeline.per_class;
  (* The tiny budget must actually have truncated something... *)
  let count q (sweep : Bounds.Pipeline.sweep) =
    List.assoc q
      (Bounds.Pipeline.quality_counts
         (List.concat_map
            (fun (_, cells) -> List.map snd cells)
            sweep.Bounds.Pipeline.per_class))
  in
  Alcotest.(check bool) "some cell hit the time budget" true
    (count Bounds.Pipeline.Time_budget tight > 0);
  (* ...while the unconstrained sweep never reads a clock. *)
  Alcotest.(check int) "free sweep has no time-budget cells" 0
    (count Bounds.Pipeline.Time_budget free)

let test_budgeted_sweep_certificates_verify () =
  (* Every cell of a budgeted sweep — degraded, converged and infeasible
     alike — must recheck from scratch. *)
  let sweep =
    Bounds.Pipeline.sweep_classes
      {
        Bounds.Pipeline.Sweep_config.default with
        solver = fo_solver;
        cell_budget_s = 1e-4;
      }
      (qos_spec ()) ~fractions:sweep_fractions sweep_fixture
  in
  List.iter
    (fun (label, series) ->
      let cls = List.assoc label sweep_fixture in
      List.iter
        (fun (q, cell) ->
          match Bounds.Pipeline.certify (qos_spec ~fraction:q ()) cls cell with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "cell %s@%g failed recheck: %s" label q e)
        series)
    sweep.Bounds.Pipeline.per_class

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_anytime_bound_monotone;
        prop_feasible_lp_rejects_all_rays;
        prop_infeasible_lp_certified;
        prop_simplex_dual_reproduces_optimum;
      ]
  in
  Alcotest.run "anytime"
    [
      ( "pdhg",
        [ Alcotest.test_case "deadline 0 still bounds" `Quick
            test_deadline_zero_still_bounds ] );
      ("farkas", [ Alcotest.test_case "unit rays" `Quick test_farkas_unit ]);
      ( "certify",
        [
          Alcotest.test_case "round trip" `Quick test_certify_roundtrip;
          Alcotest.test_case "infeasible cell" `Quick
            test_certify_infeasible_cell;
        ] );
      ( "governor",
        [
          Alcotest.test_case "budgeted bounds dominated" `Quick
            test_budgeted_sweep_bounds_dominated;
          Alcotest.test_case "budgeted certificates verify" `Quick
            test_budgeted_sweep_certificates_verify;
        ] );
      ("properties", qsuite);
    ]
