(* Tests for the LP substrate: problem construction, exact simplex,
   first-order PDHG, and the dual-certificate lower bounds. *)

let approx = Util.Vecops.approx_equal

let check_float name ?(eps = 1e-6) expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

(* --- construction helpers ------------------------------------------- *)

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

let solve_simplex p =
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal { x; objective } -> (x, objective)
  | Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Unbounded -> Alcotest.fail "unexpected: unbounded"

(* --- simplex unit tests ---------------------------------------------- *)

let test_simplex_box_max () =
  (* max x + y over the triangle x + y <= 1 => min -(x+y) = -1 *)
  let p =
    build_problem
      [ ("x", 0., 1., -1.); ("y", 0., 1., -1.) ]
      [ (Lp.Problem.Le, 1., [ (0, 1.); (1, 1.) ]) ]
  in
  let x, obj = solve_simplex p in
  check_float "objective" (-1.) obj;
  check_float "x+y" 1. (x.(0) +. x.(1))

let test_simplex_diet () =
  (* Classic 2-var diet-style LP:
     min 3a + 2b  s.t.  a + b >= 4, a + 3b >= 6, a,b >= 0.
     Vertices: (0,4) -> 8, (3,1) -> 11, (6,0) -> 18; optimum 8 at (0,4). *)
  let p =
    build_problem
      [ ("a", 0., infinity, 3.); ("b", 0., infinity, 2.) ]
      [
        (Lp.Problem.Ge, 4., [ (0, 1.); (1, 1.) ]);
        (Lp.Problem.Ge, 6., [ (0, 1.); (1, 3.) ]);
      ]
  in
  let x, obj = solve_simplex p in
  check_float "objective" 8. obj;
  check_float "a" 0. x.(0);
  check_float "b" 4. x.(1)

let test_simplex_equality () =
  (* min x + 2y s.t. x + y = 5, x <= 3 => x=3, y=2, obj 7 *)
  let p =
    build_problem
      [ ("x", 0., 3., 1.); ("y", 0., infinity, 2.) ]
      [ (Lp.Problem.Eq, 5., [ (0, 1.); (1, 1.) ]) ]
  in
  let x, obj = solve_simplex p in
  check_float "objective" 7. obj;
  check_float "x" 3. x.(0);
  check_float "y" 2. x.(1)

let test_simplex_infeasible () =
  let p =
    build_problem
      [ ("x", 0., 1., 1.) ]
      [ (Lp.Problem.Ge, 2., [ (0, 1.) ]) ]
  in
  match Lp.Simplex.solve p with
  | Lp.Simplex.Infeasible -> ()
  | Optimal _ -> Alcotest.fail "expected infeasible, got optimal"
  | Unbounded -> Alcotest.fail "expected infeasible, got unbounded"

let test_simplex_unbounded () =
  let p =
    build_problem
      [ ("x", 0., infinity, -1.) ]
      [ (Lp.Problem.Ge, 0., [ (0, 1.) ]) ]
  in
  match Lp.Simplex.solve p with
  | Lp.Simplex.Unbounded -> ()
  | Optimal _ -> Alcotest.fail "expected unbounded, got optimal"
  | Infeasible -> Alcotest.fail "expected unbounded, got infeasible"

let test_simplex_negative_rhs () =
  (* min x s.t. -x <= -2 (i.e. x >= 2), x in [0, 10] => 2 *)
  let p =
    build_problem
      [ ("x", 0., 10., 1.) ]
      [ (Lp.Problem.Le, -2., [ (0, -1.) ]) ]
  in
  let _, obj = solve_simplex p in
  check_float "objective" 2. obj

let test_simplex_shifted_lower_bounds () =
  (* min x + y with x in [2, 10], y in [3, 10], x + y >= 7 => 7 *)
  let p =
    build_problem
      [ ("x", 2., 10., 1.); ("y", 3., 10., 1.) ]
      [ (Lp.Problem.Ge, 7., [ (0, 1.); (1, 1.) ]) ]
  in
  let x, obj = solve_simplex p in
  check_float "objective" 7. obj;
  Alcotest.(check bool) "x >= 2" true (x.(0) >= 2. -. 1e-9);
  Alcotest.(check bool) "y >= 3" true (x.(1) >= 3. -. 1e-9)

let test_simplex_set_cover_lp () =
  (* Fractional set cover: 3 elements, sets {1,2} {2,3} {1,3}, unit costs.
     LP optimum is 1.5 (x = 1/2 each); the IP optimum would be 2. *)
  let p =
    build_problem
      [ ("s12", 0., 1., 1.); ("s23", 0., 1., 1.); ("s13", 0., 1., 1.) ]
      [
        (Lp.Problem.Ge, 1., [ (0, 1.); (2, 1.) ]);
        (Lp.Problem.Ge, 1., [ (0, 1.); (1, 1.) ]);
        (Lp.Problem.Ge, 1., [ (1, 1.); (2, 1.) ]);
      ]
  in
  let _, obj = solve_simplex p in
  check_float "objective" 1.5 obj

let test_simplex_degenerate () =
  (* Degenerate vertex: several constraints meet at the optimum. Bland's
     rule must still terminate. *)
  let p =
    build_problem
      [ ("x", 0., 10., -0.75); ("y", 0., 10., 150.); ("z", 0., 10., -0.02);
        ("w", 0., 10., 6.) ]
      [
        (Lp.Problem.Le, 0., [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ]);
        (Lp.Problem.Le, 0., [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ]);
        (Lp.Problem.Le, 1., [ (2, 1.) ]);
      ]
  in
  let x, obj = solve_simplex p in
  (* Beale's classic cycling example: optimum -0.05 at z = 1. *)
  check_float "objective" (-0.05) obj;
  check_float "z" 1. x.(2)

(* --- PDHG and certificates ------------------------------------------- *)

let pdhg_options =
  { Lp.Pdhg.default_options with max_iters = 50_000; rel_tol = 1e-7 }

let test_pdhg_matches_simplex_small () =
  let p =
    build_problem
      [ ("a", 0., 10., 3.); ("b", 0., 10., 2.) ]
      [
        (Lp.Problem.Ge, 4., [ (0, 1.); (1, 1.) ]);
        (Lp.Problem.Ge, 6., [ (0, 1.); (1, 3.) ]);
      ]
  in
  let _, obj = solve_simplex p in
  let out = Lp.Pdhg.solve ~options:pdhg_options p in
  Alcotest.(check bool) "converged" true out.converged;
  check_float ~eps:1e-4 "bound matches optimum" obj out.best_bound;
  Alcotest.(check bool) "bound is a lower bound" true
    (out.best_bound <= obj +. 1e-6)

let test_pdhg_equality_rows () =
  let p =
    build_problem
      [ ("x", 0., 3., 1.); ("y", 0., 8., 2.) ]
      [ (Lp.Problem.Eq, 5., [ (0, 1.); (1, 1.) ]) ]
  in
  let _, obj = solve_simplex p in
  let out = Lp.Pdhg.solve ~options:pdhg_options p in
  check_float ~eps:1e-4 "bound" obj out.best_bound

(* The iteration allocates nothing and a checkpoint only a few boxed
   scalars, so a long solve's minor allocation per iteration is a small
   constant. A checkpoint that walks the rows as boxed (int * float)
   pairs shows as hundreds of words per iteration on this model. *)
let test_pdhg_allocation () =
  let module CS = Replica_select.Case_study in
  let cs = CS.make ~nodes:10 ~scale:0.006 ~intervals:12 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
  let model =
    Mcperf.Model.build
      (Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained)
  in
  let pr = Lp.Pdhg.prepare model.Mcperf.Model.problem in
  let options =
    { Lp.Pdhg.default_options with max_iters = 2_000; rel_tol = 0. }
  in
  let before = Gc.minor_words () in
  let out = Lp.Pdhg.solve_prepared ~options pr in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "ran the whole budget" 2_000 out.iterations;
  let per_iter = words /. float_of_int out.iterations in
  if per_iter > 20. then
    Alcotest.failf "%.1f minor words per iteration (at most 20)" per_iter

let test_certificate_is_valid_for_any_dual () =
  (* For arbitrary (even silly) dual vectors, the certified bound must stay
     below the true optimum. *)
  let p =
    build_problem
      [ ("a", 0., 10., 3.); ("b", 0., 10., 2.) ]
      [
        (Lp.Problem.Ge, 4., [ (0, 1.); (1, 1.) ]);
        (Lp.Problem.Ge, 6., [ (0, 1.); (1, 3.) ]);
      ]
  in
  let _, opt = solve_simplex p in
  let norm = Lp.Problem.normalize_ge p in
  List.iter
    (fun y ->
      let bound = Lp.Certificate.dual_bound norm ~y in
      if bound > opt +. 1e-9 then
        Alcotest.failf "certificate exceeded optimum: %g > %g" bound opt)
    [
      [| 0.; 0. |]; [| 1.; 1. |]; [| 10.; 0. |]; [| -5.; 2. |]; [| 2.5; 0.5 |];
      [| 0.33; 1.77 |];
    ]

let test_certificate_rejects_le_rows () =
  let p =
    build_problem
      [ ("x", 0., 1., 1.) ]
      [ (Lp.Problem.Le, 1., [ (0, 1.) ]) ]
  in
  Alcotest.check_raises "Le rejected"
    (Invalid_argument "Certificate.dual_bound: problem must be Ge-normalized")
    (fun () -> ignore (Lp.Certificate.dual_bound p ~y:[| 1. |]))


(* --- presolve ----------------------------------------------------------- *)

let test_presolve_fixed_vars () =
  (* y is fixed by its bounds; the row becomes a singleton on x. *)
  let p =
    build_problem
      [ ("x", 0., 10., 1.); ("y", 3., 3., 2.) ]
      [ (Lp.Problem.Ge, 5., [ (0, 1.); (1, 1.) ]) ]
  in
  let r = Lp.Presolve.run p in
  Alcotest.(check bool) "reduced" true (r.Lp.Presolve.status = `Reduced);
  (* y is bound-fixed at 3, the row becomes the singleton x >= 2, and x —
     now unreferenced with a positive objective — is fixed at that bound:
     the whole problem presolves away. *)
  Alcotest.(check int) "fully presolved" 0
    (Lp.Problem.nvars r.Lp.Presolve.reduced);
  (* Solve reduced + offset = solve original. *)
  let orig =
    match Lp.Simplex.solve p with
    | Lp.Simplex.Optimal { objective; _ } -> objective
    | _ -> Alcotest.fail "original should solve"
  in
  let red =
    if Lp.Problem.nvars r.Lp.Presolve.reduced = 0 then r.Lp.Presolve.offset
    else
      match Lp.Simplex.solve r.Lp.Presolve.reduced with
      | Lp.Simplex.Optimal { objective; _ } -> objective +. r.Lp.Presolve.offset
      | _ -> Alcotest.fail "reduced should solve"
  in
  check_float "same optimum" orig red

let test_presolve_singleton_row_tightens () =
  (* 2x >= 6 is a bound x >= 3; with obj +1 the optimum is 3. *)
  let p =
    build_problem
      [ ("x", 0., 10., 1.) ]
      [ (Lp.Problem.Ge, 6., [ (0, 2.) ]) ]
  in
  let r = Lp.Presolve.run p in
  Alcotest.(check bool) "rows dropped" true (r.Lp.Presolve.dropped_rows >= 1);
  (match Lp.Simplex.solve r.Lp.Presolve.reduced with
  | Lp.Simplex.Optimal { objective; _ } ->
    check_float "optimum preserved" 3. (objective +. r.Lp.Presolve.offset)
  | _ ->
    (* x may have been fixed outright if bounds collapsed - then the
       reduced problem is empty and the offset carries the optimum. *)
    check_float "optimum via offset" 3. r.Lp.Presolve.offset)

let test_presolve_detects_infeasible_bounds () =
  (* x <= 2 and x >= 5 via two singleton rows. *)
  let p =
    build_problem
      [ ("x", 0., 10., 1.) ]
      [ (Lp.Problem.Le, 2., [ (0, 1.) ]); (Lp.Problem.Ge, 5., [ (0, 1.) ]) ]
  in
  let r = Lp.Presolve.run p in
  Alcotest.(check bool) "infeasible" true (r.Lp.Presolve.status = `Infeasible)

let test_presolve_unreferenced_vars () =
  (* z appears in no row; with positive objective it is fixed at its lower
     bound. *)
  let p =
    build_problem
      [ ("x", 0., 10., 1.); ("z", 2., 9., 5.) ]
      [ (Lp.Problem.Ge, 4., [ (0, 1.) ]) ]
  in
  let r = Lp.Presolve.run p in
  Alcotest.(check bool) "reduced" true (r.Lp.Presolve.status = `Reduced);
  (* z fixed at 2 (5 * 2 = 10); the singleton row then fixes x at 4. *)
  check_float "offset" 14. r.Lp.Presolve.offset;
  let x' = Array.make (Lp.Problem.nvars r.Lp.Presolve.reduced) 0. in
  let x = r.Lp.Presolve.restore x' in
  check_float "x restored" 4. x.(0);
  check_float "z restored" 2. x.(1)

let test_presolve_unchanged () =
  let p =
    build_problem
      [ ("x", 0., 10., 1.); ("y", 0., 10., 1.) ]
      [ (Lp.Problem.Ge, 4., [ (0, 1.); (1, 1.) ]) ]
  in
  let r = Lp.Presolve.run p in
  Alcotest.(check bool) "unchanged" true (r.Lp.Presolve.status = `Unchanged)

(* --- randomized agreement tests -------------------------------------- *)

(* Random LPs built around a known interior point so they are feasible by
   construction: pick x0 in the box, make each row a.x >= a.x0 - slack. *)
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

let prop_presolve_preserves_optimum =
  QCheck2.Test.make ~count:50
    ~name:"presolve preserves the LP optimum (reduced + offset = original)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 2) in
      let nvars = 2 + Util.Prng.int rng 6 in
      let nrows = 1 + Util.Prng.int rng 6 in
      let p = random_feasible_lp rng ~nvars ~nrows in
      let r = Lp.Presolve.run p in
      match r.Lp.Presolve.status with
      | `Infeasible -> false (* feasible by construction *)
      | `Unchanged -> true
      | `Reduced -> (
        match Lp.Simplex.solve p with
        | Lp.Simplex.Optimal { objective = orig; _ } ->
          let red =
            if Lp.Problem.nvars r.Lp.Presolve.reduced = 0 then
              Some r.Lp.Presolve.offset
            else
              match Lp.Simplex.solve r.Lp.Presolve.reduced with
              | Lp.Simplex.Optimal { objective; x } ->
                (* The restored point must be feasible for the original. *)
                let restored = r.Lp.Presolve.restore x in
                if Lp.Problem.max_violation p restored > 1e-6 then None
                else Some (objective +. r.Lp.Presolve.offset)
              | _ -> None
          in
          (match red with
          | Some v -> Float.abs (v -. orig) <= 1e-6 *. (1. +. Float.abs orig)
          | None -> false)
        | _ -> false))

let prop_pdhg_bound_below_simplex =
  QCheck2.Test.make ~count:40
    ~name:"pdhg certified bound <= simplex optimum on random feasible LPs"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let nvars = 2 + Util.Prng.int rng 6 in
      let nrows = 1 + Util.Prng.int rng 6 in
      let p = random_feasible_lp rng ~nvars ~nrows in
      match Lp.Simplex.solve p with
      | Lp.Simplex.Optimal { objective; _ } ->
        let out = Lp.Pdhg.solve ~options:pdhg_options p in
        out.best_bound <= objective +. 1e-5
        && (not out.converged
           || Float.abs (out.best_bound -. objective)
              <= 1e-3 *. (1. +. Float.abs objective))
      | Infeasible | Unbounded -> false (* feasible & bounded by design *))

let prop_simplex_solution_feasible =
  QCheck2.Test.make ~count:60
    ~name:"simplex solutions satisfy all constraints"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 7) in
      let nvars = 2 + Util.Prng.int rng 6 in
      let nrows = 1 + Util.Prng.int rng 6 in
      let p = random_feasible_lp rng ~nvars ~nrows in
      match Lp.Simplex.solve p with
      | Lp.Simplex.Optimal { x; _ } -> Lp.Problem.max_violation p x < 1e-6
      | Infeasible | Unbounded -> false)

(* --- sparse matrix tests ---------------------------------------------- *)

let test_sparse_roundtrip () =
  let a =
    Lp.Sparse.of_row_list ~rows:3 ~cols:4
      [|
        [ (0, 1.); (2, -2.) ];
        [ (1, 3.); (1, 1.); (3, 0.5) ];  (* duplicate col summed: 4. *)
        [ (0, 0.) ];  (* explicit zero dropped *)
      |]
  in
  Alcotest.(check int) "nnz" 4 (Array.length a.Lp.Sparse.values);
  let x = [| 1.; 2.; 3.; 4. |] in
  let y = Array.make 3 0. in
  Lp.Sparse.mul a x y;
  check_float "row0" (-5.) y.(0);
  check_float "row1" 10. y.(1);
  check_float "row2" 0. y.(2);
  let z = Array.make 4 0. in
  Lp.Sparse.mul_t a [| 1.; 1.; 1. |] z;
  check_float "col0" 1. z.(0);
  check_float "col1" 4. z.(1);
  check_float "col2" (-2.) z.(2);
  check_float "col3" 0.5 z.(3)

let test_sparse_rejects_nonfinite () =
  let expect_reject what rows =
    match Lp.Sparse.of_row_list ~rows:(Array.length rows) ~cols:2 rows with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect_reject "NaN coefficient" [| [ (0, Float.nan) ] |];
  expect_reject "+inf coefficient" [| [ (1, Float.infinity) ] |];
  expect_reject "-inf coefficient" [| [ (0, 1.); (1, Float.neg_infinity) ] |];
  (* A NaN must be rejected even where the old path would have summed or
     dropped it (duplicate entries, explicit zeros elsewhere). *)
  expect_reject "NaN duplicate" [| [ (0, Float.nan); (0, Float.nan) ] |]

let test_problem_violation () =
  let p =
    build_problem
      [ ("x", 0., 1., 1.) ]
      [ (Lp.Problem.Ge, 2., [ (0, 1.) ]) ]
  in
  check_float "violation of x=0" 2. (Lp.Problem.max_violation p [| 0. |]);
  check_float "violation of x=1" 1. (Lp.Problem.max_violation p [| 1. |]);
  check_float "bound violation of x=3" 2. (Lp.Problem.max_violation p [| 3. |])

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_pdhg_bound_below_simplex; prop_simplex_solution_feasible ]
  in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "box max" `Quick test_simplex_box_max;
          Alcotest.test_case "diet" `Quick test_simplex_diet;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "shifted lower bounds" `Quick
            test_simplex_shifted_lower_bounds;
          Alcotest.test_case "set-cover LP relaxation" `Quick
            test_simplex_set_cover_lp;
          Alcotest.test_case "degenerate (Beale)" `Quick test_simplex_degenerate;
        ] );
      ( "pdhg",
        [
          Alcotest.test_case "matches simplex" `Quick
            test_pdhg_matches_simplex_small;
          Alcotest.test_case "equality rows" `Quick test_pdhg_equality_rows;
          Alcotest.test_case "bounded allocation per iteration" `Quick
            test_pdhg_allocation;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "valid for any dual" `Quick
            test_certificate_is_valid_for_any_dual;
          Alcotest.test_case "rejects Le rows" `Quick
            test_certificate_rejects_le_rows;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "fixed vars" `Quick test_presolve_fixed_vars;
          Alcotest.test_case "singleton rows" `Quick
            test_presolve_singleton_row_tightens;
          Alcotest.test_case "infeasible bounds" `Quick
            test_presolve_detects_infeasible_bounds;
          Alcotest.test_case "unreferenced vars" `Quick
            test_presolve_unreferenced_vars;
          Alcotest.test_case "unchanged" `Quick test_presolve_unchanged;
          QCheck_alcotest.to_alcotest prop_presolve_preserves_optimum;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "rejects non-finite coefficients" `Quick
            test_sparse_rejects_nonfinite;
          Alcotest.test_case "violations" `Quick test_problem_violation;
        ] );
      ("properties", qsuite);
    ]
