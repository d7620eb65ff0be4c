(* Reference oracle for Lp.Simplex: the library's simplex as it was
   before its pivot, reduced-cost and Bland loops moved into the C
   kernel (lib/lp/simplex_stubs.c), kept as it was, with one scratch
   tableau per prepared value. It shares no pivot, ratio-test or scratch
   code with the library, so the differential tests in
   test_differential.ml can compare every bit of the two outcomes. *)

open Lp

type result =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

type certified =
  | Cert_optimal of { x : float array; objective : float; dual : float array }
  | Cert_infeasible of { ray : float array }
  | Cert_unbounded

let eps = 1e-9
let feas_tol = 1e-7

(* Observability instruments (cached registry lookups). *)
let m_solves = lazy (Obs.Metrics.counter "simplex.solves")
let m_pivots = lazy (Obs.Metrics.counter "simplex.pivots")
let m_infeasible = lazy (Obs.Metrics.counter "simplex.infeasible")
let m_unbounded = lazy (Obs.Metrics.counter "simplex.unbounded")

(* Tableau layout: [tab] has one row per constraint, each of length
   [ncols + 1]; the last entry is the rhs. [basis.(i)] is the variable
   basic in row i. The reduced-cost row is recomputed from scratch at the
   start of each phase and updated by pivots afterwards. During a pivot,
   [nz] holds the columns where the pivot row is nonzero. *)
type tableau = {
  m : int;
  ncols : int;
  tab : float array array;
  basis : int array;
  reduced : float array;  (* length ncols + 1; last entry = -objective *)
  nz : int array;  (* length ncols + 1 *)
}

(* Eliminates only over the pivot row's nonzero columns. At a column
   where that row holds +-0 a full sweep would subtract a signed zero,
   which leaves every nonzero entry as it is and can change only the sign
   of an entry that is already zero; nothing below reads that sign. So
   the pivot sequence and every reported value are those of a full
   sweep. *)
let pivot t ~row ~col =
  let r = t.tab.(row) in
  let piv = r.(col) in
  let nz = t.nz in
  let k = ref 0 in
  for j = 0 to t.ncols do
    let v = r.(j) in
    if v <> 0. then begin
      r.(j) <- v /. piv;
      nz.(!k) <- j;
      incr k
    end
  done;
  let k = !k in
  (* Every row, [reduced] included, has length [ncols + 1], and the first
     [k] entries of [nz] are columns below that, so the inner loop skips
     bounds checks. *)
  let eliminate ri =
    let factor = ri.(col) in
    if factor <> 0. then begin
      for q = 0 to k - 1 do
        let j = Array.unsafe_get nz q in
        Array.unsafe_set ri j
          (Array.unsafe_get ri j -. (factor *. Array.unsafe_get r j))
      done;
      ri.(col) <- 0.
    end
  in
  for i = 0 to t.m - 1 do
    if i <> row then eliminate t.tab.(i)
  done;
  eliminate t.reduced;
  t.basis.(row) <- col

let recompute_reduced t cost =
  (* reduced = cost - sum over basic rows of cost(basis) * row *)
  let w = t.ncols + 1 in
  for j = 0 to t.ncols - 1 do
    t.reduced.(j) <- cost.(j)
  done;
  t.reduced.(t.ncols) <- 0.;
  for i = 0 to t.m - 1 do
    let cb = cost.(t.basis.(i)) in
    if cb <> 0. then begin
      let r = t.tab.(i) in
      for j = 0 to w - 1 do
        t.reduced.(j) <- t.reduced.(j) -. (cb *. r.(j))
      done
    end
  done

(* Bland's rule: entering variable is the allowed column with the smallest
   index whose reduced cost is negative; leaving row breaks ratio ties by
   the smallest basic variable index. Returns the verdict together with
   the number of pivots performed (the phase's work, for telemetry). *)
let iterate t ~allowed ~budget =
  let rec step pivots =
    if pivots > budget then failwith "Simplex: pivot budget exceeded";
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed.(j) && t.reduced.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then (`Optimal, pivots)
    else begin
      let col = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let a = t.tab.(i).(col) in
        if a > eps then begin
          let ratio = t.tab.(i).(t.ncols) /. a in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
               && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
          then begin
            best_ratio := ratio;
            best_row := i
          end
        end
      done;
      if !best_row < 0 then (`Unbounded, pivots)
      else begin
        pivot t ~row:!best_row ~col;
        step (pivots + 1)
      end
    end
  in
  step 0

(* More pivots than this means a bug, not a hard instance at the
   intended scale. *)
let max_pivots = 100_000

(* How a tableau's rows map back onto the problem's rows: [row_src] is
   the original row a tableau row came from (-1 for the bound rows, whose
   multipliers the certificate re-derives optimally from the box),
   [row_flip] the rhs<0 sign flip, and [row_dual_col] the auxiliary column
   whose reduced cost carries the row's simplex multiplier: the slack
   (Le), the surplus (Ge) or the artificial (Eq). Columns [0, n) are the
   problem's variables, [n, n + n_slack) slacks and surpluses, the rest
   artificials. *)
type layout = {
  n : int;
  n_slack : int;
  row_kind : Problem.row_kind array;
  row_src : int array;
  row_flip : float array;
  row_dual_col : int array;
}

type prepared = {
  problem : Problem.t;
  layout : layout;
  base : tableau;  (* after phase 1 and the drive-out *)
  p1_pivots : int;
  farkas : float array option;  (* phase 1 proved the rows infeasible *)
  scratch : tableau Lazy.t;  (* where [solve_prepared] runs phase 2 *)
}

(* Shift x = z + lower so z >= 0, and lay out the rows: original
   constraints plus one Le row per finite upper bound, each with its
   slack, surplus and artificial columns and the basis they start in. *)
let build (p : Problem.t) =
  let n = Problem.nvars p in
  Array.iter
    (fun l ->
      if not (Float.is_finite l) then
        invalid_arg "Simplex.solve: all lower bounds must be finite")
    p.lower;
  let shifted_rows = ref [] in
  Array.iteri
    (fun idx (r : Problem.row) ->
      let shift =
        Array.fold_left (fun acc (j, v) -> acc +. (v *. p.lower.(j))) 0. r.coeffs
      in
      shifted_rows :=
        (r.kind, r.rhs -. shift, Array.to_list r.coeffs, idx) :: !shifted_rows)
    p.rows;
  Array.iteri
    (fun j u ->
      if Float.is_finite u then
        shifted_rows :=
          (Problem.Le, u -. p.lower.(j), [ (j, 1.) ], -1) :: !shifted_rows)
    p.upper;
  let all_rows = List.rev !shifted_rows in
  let m = List.length all_rows in
  (* Count auxiliary columns: slack (Le), surplus (Ge), artificial (Ge with
     positive rhs, Eq always; Le with negative rhs becomes Ge after the
     sign flip below). *)
  let rows_std =
    List.map
      (fun (kind, rhs, coeffs, src) ->
        if rhs < 0. then
          let flipped = List.map (fun (j, v) -> (j, -.v)) coeffs in
          let kind' =
            match kind with Problem.Le -> Problem.Ge | Ge -> Le | Eq -> Eq
          in
          (kind', -.rhs, flipped, src, -1.)
        else (kind, rhs, coeffs, src, 1.))
      all_rows
  in
  let n_slack =
    List.length
      (List.filter (fun (k, _, _, _, _) -> k <> Problem.Eq) rows_std)
  in
  let n_artificial =
    List.length
      (List.filter
         (fun ((k : Problem.row_kind), _, _, _, _) -> k = Ge || k = Eq)
         rows_std)
  in
  let ncols = n + n_slack + n_artificial in
  let tab = Array.make_matrix m (ncols + 1) 0. in
  let basis = Array.make m 0 in
  let row_kind = Array.make m Problem.Eq in
  let row_src = Array.make m (-1) in
  let row_flip = Array.make m 1. in
  let row_dual_col = Array.make m 0 in
  let slack_cursor = ref n in
  let art_cursor = ref (n + n_slack) in
  List.iteri
    (fun i (kind, rhs, coeffs, src, flip) ->
      row_kind.(i) <- kind;
      row_src.(i) <- src;
      row_flip.(i) <- flip;
      List.iter (fun (j, v) -> tab.(i).(j) <- tab.(i).(j) +. v) coeffs;
      tab.(i).(ncols) <- rhs;
      (match kind with
      | Problem.Le ->
        let s = !slack_cursor in
        incr slack_cursor;
        tab.(i).(s) <- 1.;
        basis.(i) <- s;
        row_dual_col.(i) <- s
      | Problem.Ge ->
        let s = !slack_cursor in
        incr slack_cursor;
        tab.(i).(s) <- -1.;
        row_dual_col.(i) <- s;
        let a = !art_cursor in
        incr art_cursor;
        tab.(i).(a) <- 1.;
        basis.(i) <- a
      | Problem.Eq ->
        let a = !art_cursor in
        incr art_cursor;
        tab.(i).(a) <- 1.;
        basis.(i) <- a;
        row_dual_col.(i) <- a))
    rows_std;
  let t =
    {
      m;
      ncols;
      tab;
      basis;
      reduced = Array.make (ncols + 1) 0.;
      nz = Array.make (ncols + 1) 0;
    }
  in
  (t, { n; n_slack; row_kind; row_src; row_flip; row_dual_col })

(* Read the simplex multipliers for the original rows out of a reduced-
   cost row and express them against the Ge-normalized problem. With
   duals y = c_B B^-1, a column with coefficient +-e_i and cost c has
   reduced cost c -+ y_i: slack (+e_i, cost 0) gives y_i = -reduced,
   surplus (-e_i, cost 0) gives y_i = +reduced, artificial (+e_i, cost
   [art_cost]) gives y_i = art_cost - reduced. [flip] undoes the rhs<0
   sign flip; the final map negates multipliers of original Le rows
   because {!Problem.normalize_ge} negates those rows. *)
let multipliers (p : Problem.t) l reduced ~art_cost =
  let v = Array.make (Array.length p.rows) 0. in
  for i = 0 to Array.length l.row_src - 1 do
    let src = l.row_src.(i) in
    if src >= 0 then begin
      let w =
        match l.row_kind.(i) with
        | Problem.Le -> -.reduced.(l.row_dual_col.(i))
        | Problem.Ge -> reduced.(l.row_dual_col.(i))
        | Problem.Eq -> art_cost -. reduced.(l.row_dual_col.(i))
      in
      v.(src) <- v.(src) +. (l.row_flip.(i) *. w)
    end
  done;
  Array.mapi
    (fun i vi ->
      match p.rows.(i).kind with
      | Problem.Le -> -.vi
      | Problem.Ge | Problem.Eq -> vi)
    v

(* Drive the artificials left basic after a feasible phase 1 out of the
   basis where possible. *)
let drive_out t l =
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= l.n + l.n_slack then begin
      let found = ref (-1) in
      (try
         for j = 0 to l.n + l.n_slack - 1 do
           if Float.abs t.tab.(i).(j) > eps then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !found >= 0 then pivot t ~row:i ~col:!found
      (* else: the row is redundant; the artificial stays basic at
         value ~0, which is harmless once its column is disallowed. *)
    end
  done

(* Phase 1 minimizes the sum of artificials. At a positive optimum its
   duals aggregate the rows into a constraint no point in the box
   satisfies, a Farkas certificate; otherwise the artificials are driven
   out. Nothing here reads the objective. *)
let phase1 p (t, l) =
  let ncols = t.ncols in
  let phase1_cost = Array.make ncols 0. in
  for j = l.n + l.n_slack to ncols - 1 do
    phase1_cost.(j) <- 1.
  done;
  recompute_reduced t phase1_cost;
  let p1_pivots =
    match iterate t ~allowed:(Array.make ncols true) ~budget:max_pivots with
    | `Unbounded, _ ->
      assert false (* phase-1 objective is bounded below by 0 *)
    | `Optimal, pivots -> pivots
  in
  let farkas =
    if -.t.reduced.(ncols) > feas_tol then
      Some (multipliers p l t.reduced ~art_cost:1.)
    else None
  in
  if Option.is_none farkas then drive_out t l;
  let scratch =
    lazy
      {
        t with
        tab = Array.make_matrix t.m (ncols + 1) 0.;
        basis = Array.make t.m 0;
        reduced = Array.make (ncols + 1) 0.;
        nz = Array.make (ncols + 1) 0;
      }
  in
  { problem = p; layout = l; base = t; p1_pivots; farkas; scratch }

let prepare p = phase1 p (build p)

let start_solve (t : tableau) =
  let sp =
    Obs.Trace.span_begin "simplex.solve"
      ~attrs:[ ("rows", Obs.Trace.Int t.m); ("cols", Obs.Trace.Int t.ncols) ]
  in
  Obs.Metrics.incr (Lazy.force m_solves);
  sp

(* Reports phase 1 and runs phase 2 under the problem's current objective
   on [t], which must hold [pr.base]'s state: the one phase-2 path. Every
   solve reports the pivots of the phase 1 that prepared it, so a
   re-solve counts the pivots a cold solve would. *)
let finish_solve sp pr t =
  let p = pr.problem and l = pr.layout in
  let finish ?(attrs = []) ~pivots verdict =
    Obs.Metrics.incr ~by:pivots (Lazy.force m_pivots);
    Obs.Trace.span_end sp
      ~attrs:
        ((("verdict", Obs.Trace.Str verdict)
          :: ("pivots", Obs.Trace.Int pivots) :: attrs))
  in
  if Obs.Config.tracing () then
    Obs.Trace.event "simplex.phase1_done"
      ~attrs:[ ("pivots", Obs.Trace.Int pr.p1_pivots) ];
  match pr.farkas with
  | Some ray ->
    Obs.Metrics.incr (Lazy.force m_infeasible);
    finish ~pivots:pr.p1_pivots "infeasible";
    Cert_infeasible { ray = Array.copy ray }
  | None -> (
    let ncols = t.ncols in
    let phase2_cost = Array.make ncols 0. in
    Array.blit p.objective 0 phase2_cost 0 l.n;
    recompute_reduced t phase2_cost;
    if Obs.Config.tracing () then Obs.Trace.event "simplex.phase2_start";
    let allowed = Array.init ncols (fun j -> j < l.n + l.n_slack) in
    match iterate t ~allowed ~budget:max_pivots with
    | `Unbounded, p2_pivots ->
      Obs.Metrics.incr (Lazy.force m_unbounded);
      finish ~pivots:(pr.p1_pivots + p2_pivots) "unbounded";
      Cert_unbounded
    | `Optimal, p2_pivots ->
      let z = Array.make l.n 0. in
      for i = 0 to t.m - 1 do
        if t.basis.(i) < l.n then z.(t.basis.(i)) <- t.tab.(i).(ncols)
      done;
      let x = Array.mapi (fun j zj -> zj +. p.lower.(j)) z in
      let objective = Problem.objective_value p x in
      finish
        ~pivots:(pr.p1_pivots + p2_pivots)
        ~attrs:[ ("objective", Obs.Trace.Float objective) ]
        "optimal";
      Cert_optimal
        { x; objective; dual = multipliers p l t.reduced ~art_cost:0. })

let solve_certified p =
  let ((t, _) as built) = build p in
  let sp = start_solve t in
  let pr = phase1 p built in
  finish_solve sp pr pr.base

let solve_prepared pr =
  let sp = start_solve pr.base in
  let s = Lazy.force pr.scratch in
  for i = 0 to s.m - 1 do
    Array.blit pr.base.tab.(i) 0 s.tab.(i) 0 (s.ncols + 1)
  done;
  Array.blit pr.base.basis 0 s.basis 0 s.m;
  finish_solve sp pr s

let solve p =
  match solve_certified p with
  | Cert_optimal { x; objective; dual = _ } -> Optimal { x; objective }
  | Cert_infeasible _ -> Infeasible
  | Cert_unbounded -> Unbounded
