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

let solve_certified (p : Problem.t) =
  let n = Problem.nvars p in
  Array.iter
    (fun l ->
      if not (Float.is_finite l) then
        invalid_arg "Simplex.solve: all lower bounds must be finite")
    p.lower;
  (* Shift x = z + lower so z >= 0, and collect rows: original constraints
     plus one Le row per finite upper bound. [src] remembers which
     original row a tableau row came from (-1 for the bound rows, whose
     multipliers the certificate re-derives optimally from the box). *)
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
     sign flip below). [flip] records the sign flip so tableau multipliers
     can be mapped back to the original row orientation. *)
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
  (* The auxiliary column whose reduced cost carries row i's simplex
     multiplier: the slack (Le), the surplus (Ge) or the artificial (Eq). *)
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
  (* Read the simplex multipliers for the original rows out of the current
     reduced-cost row and express them against the Ge-normalized problem.
     With duals y = c_B B^-1, a column with coefficient +-e_i and cost c
     has reduced cost c -+ y_i: slack (+e_i, cost 0) gives y_i =
     -reduced, surplus (-e_i, cost 0) gives y_i = +reduced, artificial
     (+e_i, cost [art_cost]) gives y_i = art_cost - reduced. [flip] undoes
     the rhs<0 sign flip; the final map negates multipliers of original
     Le rows because {!Problem.normalize_ge} negates those rows. *)
  let multipliers ~art_cost =
    let v = Array.make (Array.length p.rows) 0. in
    for i = 0 to m - 1 do
      let src = row_src.(i) in
      if src >= 0 then begin
        let w =
          match row_kind.(i) with
          | Problem.Le -> -.t.reduced.(row_dual_col.(i))
          | Problem.Ge -> t.reduced.(row_dual_col.(i))
          | Problem.Eq -> art_cost -. t.reduced.(row_dual_col.(i))
        in
        v.(src) <- v.(src) +. (row_flip.(i) *. w)
      end
    done;
    Array.mapi
      (fun i vi ->
        match p.rows.(i).kind with
        | Problem.Le -> -.vi
        | Problem.Ge | Problem.Eq -> vi)
      v
  in
  (* Phase 1: minimize the sum of artificials. *)
  let phase1_cost = Array.make ncols 0. in
  for j = n + n_slack to ncols - 1 do
    phase1_cost.(j) <- 1.
  done;
  let sp =
    Obs.Trace.span_begin "simplex.solve"
      ~attrs:[ ("rows", Obs.Trace.Int m); ("cols", Obs.Trace.Int ncols) ]
  in
  Obs.Metrics.incr (Lazy.force m_solves);
  let finish ?(attrs = []) ~pivots verdict =
    Obs.Metrics.incr ~by:pivots (Lazy.force m_pivots);
    Obs.Trace.span_end sp
      ~attrs:
        ((("verdict", Obs.Trace.Str verdict)
          :: ("pivots", Obs.Trace.Int pivots) :: attrs))
  in
  recompute_reduced t phase1_cost;
  let allowed_all = Array.make ncols true in
  let p1_pivots =
    match iterate t ~allowed:allowed_all ~budget:max_pivots with
    | `Unbounded, _ ->
      assert false (* phase-1 objective is bounded below by 0 *)
    | `Optimal, pivots -> pivots
  in
  if Obs.Config.tracing () then
    Obs.Trace.event "simplex.phase1_done"
      ~attrs:[ ("pivots", Obs.Trace.Int p1_pivots) ];
  let phase1_obj = -.t.reduced.(ncols) in
  if phase1_obj > feas_tol then begin
    (* The optimal phase-1 duals aggregate the rows into a constraint no
       point in the box satisfies: a Farkas certificate. *)
    Obs.Metrics.incr (Lazy.force m_infeasible);
    finish ~pivots:p1_pivots "infeasible";
    Cert_infeasible { ray = multipliers ~art_cost:1. }
  end
  else begin
    (* Drive remaining artificials out of the basis where possible. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= n + n_slack then begin
        let found = ref (-1) in
        (try
           for j = 0 to n + n_slack - 1 do
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
    done;
    (* Phase 2: original objective on shifted variables. *)
    let phase2_cost = Array.make ncols 0. in
    for j = 0 to n - 1 do
      phase2_cost.(j) <- p.objective.(j)
    done;
    recompute_reduced t phase2_cost;
    if Obs.Config.tracing () then Obs.Trace.event "simplex.phase2_start";
    let allowed = Array.init ncols (fun j -> j < n + n_slack) in
    match iterate t ~allowed ~budget:max_pivots with
    | `Unbounded, p2_pivots ->
      Obs.Metrics.incr (Lazy.force m_unbounded);
      finish ~pivots:(p1_pivots + p2_pivots) "unbounded";
      Cert_unbounded
    | `Optimal, p2_pivots ->
      let z = Array.make n 0. in
      for i = 0 to m - 1 do
        if t.basis.(i) < n then z.(t.basis.(i)) <- t.tab.(i).(ncols)
      done;
      let x = Array.mapi (fun j zj -> zj +. p.lower.(j)) z in
      let objective = Problem.objective_value p x in
      finish
        ~pivots:(p1_pivots + p2_pivots)
        ~attrs:[ ("objective", Obs.Trace.Float objective) ]
        "optimal";
      Cert_optimal { x; objective; dual = multipliers ~art_cost:0. }
  end

let solve p =
  match solve_certified p with
  | Cert_optimal { x; objective; dual = _ } -> Optimal { x; objective }
  | Cert_infeasible _ -> Infeasible
  | Cert_unbounded -> Unbounded
