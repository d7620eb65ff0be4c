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

(* A prepared problem, and the iterates of one solve on it, as PDHG's C
   sweeps (pdhg_stubs.c) take them. The stub reads each field by
   position, so the order of [prepared]'s first thirteen fields and of
   [iterate]'s fields is its ABI: a field added, removed or moved among
   them must move in the stub's enums too. *)
type prepared = {
  colt_ptr : int array;  (* the constraint matrix's CSC image ... *)
  rowt_idx : int array;
  valuest : float array;
  row_ptr : int array;  (* ... and its CSR image, as in [a] *)
  col_idx : int array;
  values : float array;
  c : float array;
      (* [norm.objective] itself, not a copy: the Lagrangian rewrites it in
         place between solves of one prepared problem *)
  lower : float array;
  upper : float array;
  tau : float array;
  b : float array;
  is_eq : bool array;
  sigma : float array;
  norm : Problem.t;  (* Ge-normalized view of the prepared problem *)
  a : Sparse.t;
}

type iterate = {
  x : float array;
  y : float array;
  x_bar : float array;
  x_sum : float array;
  y_sum : float array;
}

external column_sweep : prepared -> iterate -> unit = "pdhg_column_sweep"
[@@noalloc]

external row_sweep : prepared -> iterate -> unit = "pdhg_row_sweep"
[@@noalloc]

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
  {
    colt_ptr = a.Sparse.colt_ptr;
    rowt_idx = a.rowt_idx;
    valuest = a.valuest;
    row_ptr = a.row_ptr;
    col_idx = a.col_idx;
    values = a.values;
    c = norm.objective;
    lower = norm.lower;
    upper = norm.upper;
    tau;
    b;
    is_eq;
    sigma;
    norm;
    a;
  }

let prepared_problem r = r.norm

(* --- checkpoints on the prepared image ------------------------------------ *)

(* [Certificate.dual_bound pr.norm ~y] for a solver iterate, read off the
   CSC image with no allocation: the rhs terms, then column by column c_j
   minus y_i·A_ij over the rows with y_i <> 0, ascending. It is bit-equal
   to the certificate because
   - the rows of a [Problem.t] hold ascending, unique, nonzero
     coefficients, which [Sparse.of_row_list] stores as they are, so
     column j's CSC entries are the row coefficients on j in the order
     the certificate subtracts them;
   - the solver's Ge duals are projected to [+0, +inf] at every dual step
     and restart, so the certificate's own projection leaves them as they
     are;
   - every variable bound is finite ([prepare] checks it), so no column
     takes the certificate's unbounded branch. *)
let dual_bound pr y =
  let { colt_ptr; rowt_idx; valuest; c; lower; upper; b; _ } = pr in
  let bound = ref 0. in
  for i = 0 to Array.length b - 1 do
    bound := !bound +. (Array.unsafe_get y i *. Array.unsafe_get b i)
  done;
  for j = 0 to Array.length c - 1 do
    let r = ref (Array.unsafe_get c j) in
    for q = Array.unsafe_get colt_ptr j to Array.unsafe_get colt_ptr (j + 1) - 1
    do
      let yi = Array.unsafe_get y (Array.unsafe_get rowt_idx q) in
      if yi <> 0. then r := !r -. (yi *. Array.unsafe_get valuest q)
    done;
    let r = !r in
    bound :=
      !bound
      +. (if r >= 0. then r *. Array.unsafe_get lower j
          else r *. Array.unsafe_get upper j)
  done;
  !bound

(* [Problem.max_violation pr.norm x] read off the CSR image with no
   allocation: the bound violations, then each row's activity summed from
   0 over its coefficients in order — bit-equal for the same reasons. *)
let max_violation pr x =
  let { row_ptr; col_idx; values; lower; upper; b; is_eq; _ } = pr in
  let worst = ref 0. in
  for j = 0 to Array.length x - 1 do
    let xj = Array.unsafe_get x j in
    let v = Array.unsafe_get lower j -. xj in
    if v > !worst then worst := v;
    let v = xj -. Array.unsafe_get upper j in
    if v > !worst then worst := v
  done;
  for i = 0 to Array.length b - 1 do
    let a = ref 0. in
    for q = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1 do
      a :=
        !a
        +. (Array.unsafe_get values q
            *. Array.unsafe_get x (Array.unsafe_get col_idx q))
    done;
    let bi = Array.unsafe_get b i in
    let v =
      if Array.unsafe_get is_eq i then Float.abs (!a -. bi) else bi -. !a
    in
    if v > !worst then worst := v
  done;
  !worst

(* --- two-sweep solver ----------------------------------------------------- *)

(* One iteration is two sweeps over the prepared image, each forming one
   sparse product entry by entry and consuming it at once:

     column sweep (CSC): (A^T y)_j, then column j's primal step, box
       projection, extrapolation to x_bar and average accumulation;
     row sweep (CSR):    (A x_bar)_i, then row i's dual step, cone
       projection and average accumulation.

   The column sweep reads the y the last row sweep (or restart) left, so
   no A^T y or A x_bar vector is stored. Both sweeps are the C externals
   above. The reference implementation below ([solve_reference]) runs
   the same recurrence as separate OCaml passes; the stub keeps every
   per-element expression's order and association and is built with
   floating-point contraction off, so the two are bit-identical, and the
   differential tests pin them together. The stub's functions and loops
   are 32-byte aligned (lib/lp/dune), so the sweeps' speed does not
   depend on the size of the code linked before them. *)

let solve_prepared ?(options = default_options) pr =
  let p = pr.norm in
  let n = Problem.nvars p and m = Problem.nrows p in
  let b = pr.b in
  let c = p.objective in
  let is_eq = pr.is_eq in
  let x = Array.copy p.lower in
  let y = Array.make m 0. in
  let x_bar = Array.make n 0. in
  (* Running averages for restarts: on LPs, periodically restarting the
     iteration from the ergodic average empirically upgrades PDHG's O(1/k)
     rate to fast linear convergence (the key idea behind PDLP). *)
  let x_sum = Array.make n 0. in
  let y_sum = Array.make m 0. in
  let it = { x; y; x_bar; x_sum; y_sum } in
  let since_restart = ref 0 in
  let best_bound = ref neg_infinity in
  let best_y = Array.make m 0. in
  let pinf_tol = options.rel_tol *. (1. +. Util.Vecops.norm_inf b) in
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
  (try
     for iter = 1 to options.max_iters do
       iterations := iter;
       column_sweep pr it;
       row_sweep pr it;
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
         since_restart := 0
       end;
       if iter mod options.check_every = 0 then begin
         let bound = dual_bound pr y in
         if bound > !best_bound then begin
           best_bound := bound;
           Array.blit y 0 best_y 0 m
         end;
         let pobj = Util.Vecops.dot c x in
         let pinf = max_violation pr x in
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
           && pinf < pinf_tol
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
  let final_bound = dual_bound pr y in
  if final_bound > !best_bound then begin
    best_bound := final_bound;
    Array.blit y 0 best_y 0 m
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
    best_y;
    primal_objective;
    primal_infeasibility = max_violation pr x;
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
   dual, matvec, two average accumulations). On finite data any
   difference between its outcome and [solve_prepared]'s, down to the
   last bit, is a kernel bug. *)

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
