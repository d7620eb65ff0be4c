type result = {
  reduced : Problem.t;
  offset : float;
  restore : float array -> float array;
  var_map : int array;
  status : [ `Reduced | `Infeasible | `Unchanged ];
  fixed_vars : int;
  dropped_rows : int;
}

let identity_map n = Array.init n (fun j -> j)

let fix_tol = 1e-12
let feas_tol = 1e-9

type state = {
  lower : float array;
  upper : float array;
  fixed : float option array;
  mutable infeasible : bool;
}

let fix st j v =
  match st.fixed.(j) with
  | Some old -> if Float.abs (old -. v) > feas_tol then st.infeasible <- true
  | None ->
    if v < st.lower.(j) -. feas_tol || v > st.upper.(j) +. feas_tol then
      st.infeasible <- true
    else st.fixed.(j) <- Some v

let maybe_fix_by_bounds st j =
  if st.fixed.(j) = None then begin
    if st.lower.(j) > st.upper.(j) +. feas_tol then st.infeasible <- true
    else if st.upper.(j) -. st.lower.(j) <= fix_tol then fix st j st.lower.(j)
  end

let tighten_lower st j v =
  if v > st.lower.(j) then st.lower.(j) <- v;
  maybe_fix_by_bounds st j

let tighten_upper st j v =
  if v < st.upper.(j) then st.upper.(j) <- v;
  maybe_fix_by_bounds st j

(* One pass over the live rows: substitute fixed variables, drop rows that
   became trivial, turn singleton rows into bound updates. Returns the
   still-live rows and whether anything changed. *)
let row_pass st rows =
  let changed = ref false in
  let live = ref [] in
  List.iter
    (fun (row : Problem.row) ->
      if st.infeasible then ()
      else begin
        let shift = ref 0. in
        let unfixed = ref [] in
        Array.iter
          (fun (j, a) ->
            match st.fixed.(j) with
            | Some v -> shift := !shift +. (a *. v)
            | None -> unfixed := (j, a) :: !unfixed)
          row.coeffs;
        let rhs = row.rhs -. !shift in
        match !unfixed with
        | [] ->
          changed := true;
          let ok =
            match row.kind with
            | Problem.Ge -> 0. >= rhs -. feas_tol
            | Problem.Le -> 0. <= rhs +. feas_tol
            | Problem.Eq -> Float.abs rhs <= feas_tol
          in
          if not ok then st.infeasible <- true
        | [ (j, a) ] when a <> 0. ->
          changed := true;
          let v = rhs /. a in
          (match (row.kind, a > 0.) with
          | Problem.Eq, _ -> fix st j v
          | Problem.Ge, true | Problem.Le, false -> tighten_lower st j v
          | Problem.Ge, false | Problem.Le, true -> tighten_upper st j v)
        | _ -> live := row :: !live
      end)
    rows;
  (List.rev !live, !changed)

(* Fix variables that occur in no live row at their cheapest finite bound;
   variables with an unbounded improving direction are left for the solver
   (it will report unboundedness if the objective pushes that way). *)
let fix_unreferenced st (p : Problem.t) rows =
  let changed = ref false in
  let appears = Array.make (Array.length st.fixed) false in
  List.iter
    (fun (row : Problem.row) ->
      Array.iter
        (fun (j, _) -> if st.fixed.(j) = None then appears.(j) <- true)
        row.coeffs)
    rows;
  Array.iteri
    (fun j is_used ->
      if (not is_used) && st.fixed.(j) = None then begin
        let c = p.objective.(j) in
        let candidate =
          if c > 0. then
            if Float.is_finite st.lower.(j) then Some st.lower.(j) else None
          else if c < 0. then
            if Float.is_finite st.upper.(j) then Some st.upper.(j) else None
          else
            Some
              (Util.Vecops.clamp 0. ~lo:st.lower.(j) ~hi:st.upper.(j))
        in
        match candidate with
        | Some v ->
          fix st j v;
          changed := true
        | None -> ()
      end)
    appears;
  !changed

let max_passes = 10

let run ?(fix_unreferenced_vars = true) (p : Problem.t) =
  let n = Problem.nvars p in
  let st =
    {
      lower = Array.copy p.lower;
      upper = Array.copy p.upper;
      fixed = Array.make n None;
      infeasible = false;
    }
  in
  for j = 0 to n - 1 do
    maybe_fix_by_bounds st j
  done;
  let rows = ref (Array.to_list p.rows) in
  let continue_passes = ref true in
  let passes = ref 0 in
  while !continue_passes && (not st.infeasible) && !passes < max_passes do
    incr passes;
    let live, rows_changed = row_pass st !rows in
    rows := live;
    let vars_changed =
      fix_unreferenced_vars && fix_unreferenced st p live
    in
    continue_passes := rows_changed || vars_changed
  done;
  if st.infeasible then
    {
      reduced = p;
      offset = 0.;
      restore = Fun.id;
      var_map = identity_map n;
      status = `Infeasible;
      fixed_vars = 0;
      dropped_rows = 0;
    }
  else begin
    let fixed_vars =
      Array.fold_left
        (fun acc f -> if f <> None then acc + 1 else acc)
        0 st.fixed
    in
    let dropped_rows = Array.length p.rows - List.length !rows in
    if fixed_vars = 0 && dropped_rows = 0 then
      {
        reduced = p;
        offset = 0.;
        restore = Fun.id;
        var_map = identity_map n;
        status = `Unchanged;
        fixed_vars = 0;
        dropped_rows = 0;
      }
    else begin
      (* Build the reduced problem over the surviving variables. *)
      let new_index = Array.make n (-1) in
      let b = Problem.Builder.create () in
      let offset = ref 0. in
      for j = 0 to n - 1 do
        match st.fixed.(j) with
        | Some v -> offset := !offset +. (p.objective.(j) *. v)
        | None ->
          new_index.(j) <-
            Problem.Builder.add_var b ~lo:st.lower.(j) ~hi:st.upper.(j)
              ~obj:p.objective.(j) ()
      done;
      List.iter
        (fun (row : Problem.row) ->
          let shift = ref 0. in
          let terms = ref [] in
          Array.iter
            (fun (j, a) ->
              match st.fixed.(j) with
              | Some v -> shift := !shift +. (a *. v)
              | None -> terms := (new_index.(j), a) :: !terms)
            row.coeffs;
          Problem.Builder.add_row b row.kind ~rhs:(row.rhs -. !shift) !terms)
        !rows;
      let reduced = Problem.Builder.build b in
      let fixed_snapshot = Array.copy st.fixed in
      let restore x' =
        Array.init n (fun j ->
            match fixed_snapshot.(j) with
            | Some v -> v
            | None -> x'.(new_index.(j)))
      in
      {
        reduced;
        offset = !offset;
        restore;
        var_map = new_index;
        status = `Reduced;
        fixed_vars;
        dropped_rows;
      }
    end
  end
