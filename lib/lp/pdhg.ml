type options = {
  max_iters : int;
  check_every : int;
  rel_tol : float;
  restart_every : int;
  deadline_s : float;
}

let default_options =
  {
    max_iters = 20_000;
    check_every = 50;
    rel_tol = 1e-6;
    restart_every = 1_000;
    deadline_s = infinity;
  }

type stop_reason = Converged | Deadline | Budget

let stop_label = function
  | Converged -> "converged"
  | Deadline -> "deadline"
  | Budget -> "budget"

type outcome = {
  x : float array;
  y : float array;
  best_bound : float;
  best_y : float array;
  primal_objective : float;
  primal_infeasibility : float;
  iterations : int;
  converged : bool;
  stop : stop_reason;
  rel_gap : float;
}

(* Observability instruments (cached registry lookups). Only
   [solve_prepared] is instrumented; [solve_reference] stays a pristine
   oracle for the differential tests. *)
let m_solves = lazy (Obs.Metrics.counter "pdhg.solves")
let m_iters = lazy (Obs.Metrics.counter "pdhg.iterations")
let m_restarts = lazy (Obs.Metrics.counter "pdhg.restarts")
let m_checkpoints = lazy (Obs.Metrics.counter "pdhg.checkpoints")
let m_converged = lazy (Obs.Metrics.counter "pdhg.converged")
let m_deadline = lazy (Obs.Metrics.counter "pdhg.deadline_stops")

(* --- prepared problems --------------------------------------------------- *)

type prepared = {
  norm : Problem.t;  (* Ge-normalized view of the prepared problem *)
  a : Sparse.t;
  b : float array;
  is_eq : bool array;
  tau : float array;
  sigma : float array;
}

let validate_bounds (p : Problem.t) =
  Array.iteri
    (fun j l ->
      if not (Float.is_finite l && Float.is_finite p.upper.(j)) then
        invalid_arg "Pdhg.solve: all variable bounds must be finite")
    p.lower

let prepare p =
  validate_bounds p;
  let norm = Problem.normalize_ge p in
  let a = Problem.constraint_matrix norm in
  let b = Problem.rhs_vector norm in
  let is_eq =
    Array.map (fun (r : Problem.row) -> r.kind = Problem.Eq) norm.rows
  in
  (* Diagonal preconditioners: tau_j = 1 / sum_i |A_ij|, sigma_i =
     1 / sum_j |A_ij| (alpha = 1), which satisfies the Pock-Chambolle
     convergence condition. Empty rows/columns get a neutral step. *)
  let tau =
    Array.map (fun s -> if s > 0. then 1. /. s else 1.) (Sparse.col_abs_sums a)
  in
  let sigma =
    Array.map (fun s -> if s > 0. then 1. /. s else 1.) (Sparse.row_abs_sums a)
  in
  { norm; a; b; is_eq; tau; sigma }

let prepared_problem r = r.norm

(* --- fused solver -------------------------------------------------------- *)

(* The iteration streams each vector once per step:

     pass 1 (length n): primal step + box projection, extrapolation to
       x_bar, and the ergodic-average accumulation — fused;
     pass 2:            y <- A x_bar  (CSR matvec);
     pass 3 (length m): dual ascent + cone projection + average — fused;
     pass 4:            aty <- A^T y (CSC matvec).

   The reference implementation below ([solve_reference]) runs the same
   recurrence as separate passes; the differential tests pin the two
   together. Keeping the per-element arithmetic in the same order and
   association makes the fused path bit-identical, not merely close. *)

let solve_prepared ?(options = default_options) pr =
  let p = pr.norm in
  let n = Problem.nvars p and m = Problem.nrows p in
  let a = pr.a in
  let b = pr.b in
  let c = p.objective in
  let lower = p.lower and upper = p.upper in
  let tau = pr.tau and sigma = pr.sigma in
  let is_eq = pr.is_eq in
  let x = Array.copy lower in
  let y = Array.make m 0. in
  let aty = Array.make n 0. in
  let ax_bar = Array.make m 0. in
  let x_bar = Array.make n 0. in
  (* Running averages for restarts: on LPs, periodically restarting the
     iteration from the ergodic average empirically upgrades PDHG's O(1/k)
     rate to fast linear convergence (the key idea behind PDLP). *)
  let x_sum = Array.make n 0. in
  let y_sum = Array.make m 0. in
  let since_restart = ref 0 in
  let best_bound = ref neg_infinity in
  let best_y = ref (Array.copy y) in
  let iterations = ref 0 in
  let converged = ref false in
  let deadline_hit = ref false in
  (* Wall-clock budget: checked only at checkpoints, and only when a
     finite deadline was asked for — the default path never reads the
     clock, so iterates are bit-identical with or without this feature. *)
  let budgeted = Float.is_finite options.deadline_s in
  let t_start = if budgeted then Unix.gettimeofday () else 0. in
  let past_deadline () =
    budgeted && Unix.gettimeofday () -. t_start >= options.deadline_s
  in
  let sp =
    Obs.Trace.span_begin "pdhg.solve"
      ~attrs:[ ("n", Obs.Trace.Int n); ("m", Obs.Trace.Int m) ]
  in
  Sparse.mul_t a y aty;
  (try
     for iter = 1 to options.max_iters do
       iterations := iter;
       (* Fused primal pass: projected preconditioned step, extrapolation
          and average accumulation in one stream over the variables. *)
       for j = 0 to n - 1 do
         let xj = Array.unsafe_get x j in
         let g = Array.unsafe_get c j -. Array.unsafe_get aty j in
         let v = xj -. (Array.unsafe_get tau j *. g) in
         let l = Array.unsafe_get lower j and h = Array.unsafe_get upper j in
         let xn = if v < l then l else if v > h then h else v in
         Array.unsafe_set x j xn;
         Array.unsafe_set x_bar j ((2. *. xn) -. xj);
         Array.unsafe_set x_sum j (Array.unsafe_get x_sum j +. xn)
       done;
       Sparse.mul a x_bar ax_bar;
       (* Fused dual pass: ascend on b - A x_bar, project Ge duals to
          >= 0, accumulate the average. *)
       for i = 0 to m - 1 do
         let yi =
           Array.unsafe_get y i
           +. (Array.unsafe_get sigma i
               *. (Array.unsafe_get b i -. Array.unsafe_get ax_bar i))
         in
         let yi =
           if Array.unsafe_get is_eq i then yi
           else if yi > 0. then yi
           else 0.
         in
         Array.unsafe_set y i yi;
         Array.unsafe_set y_sum i (Array.unsafe_get y_sum i +. yi)
       done;
       Sparse.mul_t a y aty;
       incr since_restart;
       if options.restart_every > 0 && !since_restart >= options.restart_every
       then begin
         if Obs.Config.tracing () then
           Obs.Trace.event "pdhg.restart"
             ~attrs:[ ("iter", Obs.Trace.Int iter) ];
         Obs.Metrics.incr (Lazy.force m_restarts);
         let inv = 1. /. float_of_int !since_restart in
         for j = 0 to n - 1 do
           x.(j) <- x_sum.(j) *. inv;
           x_sum.(j) <- 0.
         done;
         for i = 0 to m - 1 do
           let avg = y_sum.(i) *. inv in
           y.(i) <- (if is_eq.(i) then avg else Float.max 0. avg);
           y_sum.(i) <- 0.
         done;
         since_restart := 0;
         Sparse.mul_t a y aty
       end;
       if iter mod options.check_every = 0 then begin
         let bound = Certificate.dual_bound p ~y in
         if bound > !best_bound then begin
           best_bound := bound;
           best_y := Array.copy y
         end;
         let pobj = Util.Vecops.dot c x in
         let pinf = Problem.max_violation p x in
         let scale = 1. +. Float.abs pobj +. Float.abs !best_bound in
         let gap = Float.abs (pobj -. !best_bound) /. scale in
         Obs.Metrics.incr (Lazy.force m_checkpoints);
         if Obs.Config.tracing () then
           Obs.Trace.event "pdhg.checkpoint"
             ~attrs:
               [
                 ("iter", Obs.Trace.Int iter);
                 ("bound", Obs.Trace.Float !best_bound);
                 ("gap", Obs.Trace.Float gap);
                 ("pinf", Obs.Trace.Float pinf);
               ];
         if
           Float.is_finite !best_bound
           && gap < options.rel_tol
           && pinf < options.rel_tol *. (1. +. Util.Vecops.norm_inf b)
         then begin
           converged := true;
           raise Exit
         end;
         if past_deadline () then begin
           deadline_hit := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  (* Final checkpoint in case the loop ended between checks. *)
  let final_bound = Certificate.dual_bound p ~y in
  if final_bound > !best_bound then begin
    best_bound := final_bound;
    best_y := Array.copy y
  end;
  let primal_objective = Util.Vecops.dot c x in
  let rel_gap =
    if Float.is_finite !best_bound then
      Float.abs (primal_objective -. !best_bound)
      /. (1. +. Float.abs primal_objective +. Float.abs !best_bound)
    else infinity
  in
  Obs.Metrics.incr (Lazy.force m_solves);
  Obs.Metrics.incr ~by:!iterations (Lazy.force m_iters);
  if !converged then Obs.Metrics.incr (Lazy.force m_converged);
  if !deadline_hit then Obs.Metrics.incr (Lazy.force m_deadline);
  Obs.Trace.span_end sp
    ~attrs:
      [
        ("iterations", Obs.Trace.Int !iterations);
        ( "stop",
          Obs.Trace.Str
            (stop_label
               (if !converged then Converged
                else if !deadline_hit then Deadline
                else Budget)) );
        ("bound", Obs.Trace.Float !best_bound);
        ("rel_gap", Obs.Trace.Float rel_gap);
      ];
  {
    x;
    y;
    best_bound = !best_bound;
    best_y = !best_y;
    primal_objective;
    primal_infeasibility = Problem.max_violation p x;
    iterations = !iterations;
    converged = !converged;
    stop =
      (if !converged then Converged
       else if !deadline_hit then Deadline
       else Budget);
    rel_gap;
  }

let solve ?options problem = solve_prepared ?options (prepare problem)

(* --- reference implementation -------------------------------------------- *)

(* The pre-fusion iteration, kept as the oracle for the differential
   tests: one pass per conceptual step (copy, primal, extrapolate, matvec,
   dual, matvec, two average accumulations). Any divergence between this
   and [solve_prepared] beyond float-noise is a kernel bug. *)

let solve_reference ?(options = default_options) problem =
  let pr = prepare problem in
  let p = pr.norm in
  let n = Problem.nvars p and m = Problem.nrows p in
  let a = pr.a in
  let b = pr.b in
  let c = p.objective in
  let tau = pr.tau and sigma = pr.sigma in
  let is_eq = pr.is_eq in
  let x = Array.copy p.lower in
  let y = Array.make m 0. in
  let x_prev = Array.make n 0. in
  let aty = Array.make n 0. in
  let ax_bar = Array.make m 0. in
  let x_bar = Array.make n 0. in
  let x_sum = Array.make n 0. in
  let y_sum = Array.make m 0. in
  let since_restart = ref 0 in
  let best_bound = ref neg_infinity in
  let best_y = ref (Array.copy y) in
  let iterations = ref 0 in
  let converged = ref false in
  let deadline_hit = ref false in
  let budgeted = Float.is_finite options.deadline_s in
  let t_start = if budgeted then Unix.gettimeofday () else 0. in
  let past_deadline () =
    budgeted && Unix.gettimeofday () -. t_start >= options.deadline_s
  in
  Sparse.mul_t a y aty;
  (try
     for iter = 1 to options.max_iters do
       iterations := iter;
       Array.blit x 0 x_prev 0 n;
       (* Primal step with box projection. *)
       for j = 0 to n - 1 do
         let g = c.(j) -. aty.(j) in
         x.(j) <-
           Util.Vecops.clamp
             (x.(j) -. (tau.(j) *. g))
             ~lo:p.lower.(j) ~hi:p.upper.(j)
       done;
       (* Extrapolated point. *)
       Util.Vecops.axpby_into 2. x (-1.) x_prev x_bar;
       Sparse.mul a x_bar ax_bar;
       (* Dual step: ascend on b - A x_bar; project Ge duals to >= 0. *)
       for i = 0 to m - 1 do
         let yi = y.(i) +. (sigma.(i) *. (b.(i) -. ax_bar.(i))) in
         y.(i) <- (if is_eq.(i) then yi else Float.max 0. yi)
       done;
       Sparse.mul_t a y aty;
       Util.Vecops.axpy 1. x x_sum;
       Util.Vecops.axpy 1. y y_sum;
       incr since_restart;
       if options.restart_every > 0 && !since_restart >= options.restart_every
       then begin
         let inv = 1. /. float_of_int !since_restart in
         for j = 0 to n - 1 do
           x.(j) <- x_sum.(j) *. inv;
           x_sum.(j) <- 0.
         done;
         for i = 0 to m - 1 do
           let avg = y_sum.(i) *. inv in
           y.(i) <- (if is_eq.(i) then avg else Float.max 0. avg);
           y_sum.(i) <- 0.
         done;
         since_restart := 0;
         Sparse.mul_t a y aty
       end;
       if iter mod options.check_every = 0 then begin
         let bound = Certificate.dual_bound p ~y in
         if bound > !best_bound then begin
           best_bound := bound;
           best_y := Array.copy y
         end;
         let pobj = Util.Vecops.dot c x in
         let pinf = Problem.max_violation p x in
         let scale = 1. +. Float.abs pobj +. Float.abs !best_bound in
         let gap = Float.abs (pobj -. !best_bound) /. scale in
         if
           Float.is_finite !best_bound
           && gap < options.rel_tol
           && pinf < options.rel_tol *. (1. +. Util.Vecops.norm_inf b)
         then begin
           converged := true;
           raise Exit
         end;
         if past_deadline () then begin
           deadline_hit := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  let final_bound = Certificate.dual_bound p ~y in
  if final_bound > !best_bound then begin
    best_bound := final_bound;
    best_y := Array.copy y
  end;
  let primal_objective = Util.Vecops.dot c x in
  let rel_gap =
    if Float.is_finite !best_bound then
      Float.abs (primal_objective -. !best_bound)
      /. (1. +. Float.abs primal_objective +. Float.abs !best_bound)
    else infinity
  in
  {
    x;
    y;
    best_bound = !best_bound;
    best_y = !best_y;
    primal_objective;
    primal_infeasibility = Problem.max_violation p x;
    iterations = !iterations;
    converged = !converged;
    stop =
      (if !converged then Converged
       else if !deadline_hit then Deadline
       else Budget);
    rel_gap;
  }
