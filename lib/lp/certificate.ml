(* Shared evaluator for weak-duality bounds: with the problem's own
   objective it is the classic dual bound; with a zero objective it is the
   Farkas margin of an infeasibility ray (see the .mli). *)
let bound_with_objective (p : Problem.t) ~objective ~y =
  let m = Problem.nrows p in
  if Array.length y <> m then
    invalid_arg "Certificate.dual_bound: dual dimension mismatch";
  let y_feas =
    Array.mapi
      (fun i yi ->
        match p.rows.(i).kind with
        | Problem.Ge -> Float.max 0. yi
        | Problem.Eq -> yi
        | Problem.Le ->
          invalid_arg "Certificate.dual_bound: problem must be Ge-normalized")
      y
  in
  let r = Array.copy objective in
  Array.iteri
    (fun i (row : Problem.row) ->
      let yi = y_feas.(i) in
      if yi <> 0. then
        Array.iter (fun (j, v) -> r.(j) <- r.(j) -. (yi *. v)) row.coeffs)
    p.rows;
  let bound = ref 0. in
  Array.iteri (fun i (row : Problem.row) -> bound := !bound +. (y_feas.(i) *. row.rhs)) p.rows;
  (try
     for j = 0 to Problem.nvars p - 1 do
       let lo = p.lower.(j) and hi = p.upper.(j) in
       let contrib =
         if r.(j) >= 0. then r.(j) *. lo
         else if Float.is_finite hi then r.(j) *. hi
         else raise Exit
       in
       bound := !bound +. contrib
     done
   with Exit -> bound := neg_infinity);
  (!bound, r)

let dual_bound_parts (p : Problem.t) ~y =
  bound_with_objective p ~objective:p.objective ~y

let dual_bound p ~y = fst (dual_bound_parts p ~y)

(* --- Farkas infeasibility certificates ----------------------------------- *)

let farkas_margin (p : Problem.t) ~ray =
  let zero = Array.make (Problem.nvars p) 0. in
  fst (bound_with_objective p ~objective:zero ~y:ray)

let farkas_tol = 1e-9

let check_farkas (p : Problem.t) ~ray =
  Array.length ray = Problem.nrows p
  && Array.for_all Float.is_finite ray
  &&
  let rhs_part =
    (* Scale for the acceptance threshold: the margin of a genuine
       certificate grows with the rhs magnitudes it aggregates. *)
    let acc = ref 0. in
    Array.iteri
      (fun i (row : Problem.row) -> acc := !acc +. Float.abs (ray.(i) *. row.rhs))
      p.rows;
    !acc
  in
  match farkas_margin p ~ray with
  | margin -> Float.is_finite margin && margin > farkas_tol *. (1. +. rhs_part)
  | exception Invalid_argument _ -> false

let row_farkas (p : Problem.t) =
  let m = Problem.nrows p in
  (* Supremum / infimum of a row's left-hand side over the variable box. *)
  let sup (row : Problem.row) =
    Array.fold_left
      (fun acc (j, v) ->
        acc +. (if v >= 0. then v *. p.upper.(j) else v *. p.lower.(j)))
      0. row.coeffs
  in
  let inf (row : Problem.row) =
    Array.fold_left
      (fun acc (j, v) ->
        acc +. (if v >= 0. then v *. p.lower.(j) else v *. p.upper.(j)))
      0. row.coeffs
  in
  let found = ref None in
  (try
     for i = 0 to m - 1 do
       let row = p.rows.(i) in
       let slack = farkas_tol *. (1. +. Float.abs row.rhs) in
       let hit sign =
         let ray = Array.make m 0. in
         ray.(i) <- sign;
         if check_farkas p ~ray then begin
           found := Some ray;
           raise Exit
         end
       in
       (match row.kind with
       | Problem.Ge ->
         let s = sup row in
         if Float.is_finite s && s < row.rhs -. slack then hit 1.
       | Problem.Eq ->
         let s = sup row in
         if Float.is_finite s && s < row.rhs -. slack then hit 1.
         else
           let l = inf row in
           if Float.is_finite l && l > row.rhs +. slack then hit (-1.)
       | Problem.Le ->
         invalid_arg "Certificate.row_farkas: problem must be Ge-normalized")
     done
   with Exit -> ());
  !found
