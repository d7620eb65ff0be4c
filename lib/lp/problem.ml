type row_kind = Ge | Le | Eq

type row = {
  kind : row_kind;
  rhs : float;
  coeffs : (int * float) array;
}

type t = {
  nvars : int;
  objective : float array;
  lower : float array;
  upper : float array;
  rows : row array;
}

module Builder = struct
  type buf = {
    mutable objs : float list;
    mutable lowers : float list;
    mutable uppers : float list;
    mutable nvars : int;
    mutable brows : row list;
  }

  type t = buf

  let create () =
    {
      objs = [];
      lowers = [];
      uppers = [];
      nvars = 0;
      brows = [];
    }

  let add_var b ?(lo = 0.) ?(hi = infinity) ~obj () =
    if lo > hi then invalid_arg "Lp.Builder.add_var: lo > hi";
    b.objs <- obj :: b.objs;
    b.lowers <- lo :: b.lowers;
    b.uppers <- hi :: b.uppers;
    let idx = b.nvars in
    b.nvars <- b.nvars + 1;
    idx

  (* Fast path: model builders overwhelmingly emit rows whose term lists
     are already strictly monotone in the variable index with nonzero
     coefficients (ascending or descending — prepending while scanning
     nodes in order yields descending lists). Such a list has no
     duplicates to combine and nothing to drop, so the sorted coefficient
     array is just the list (reversed if descending) — no hashtable, no
     comparison sort. Anything else falls back to the general
     combine-and-sort path with identical semantics. *)
  let strictly_monotone terms =
    let rec check dir prev = function
      | [] -> dir
      | (j, v) :: tl ->
        if v = 0. then 0
        else begin
          let d = if j > prev then 1 else if j < prev then -1 else 0 in
          if d = 0 then 0
          else if dir = 0 || dir = d then check d j tl
          else 0
        end
    in
    match terms with
    | [] -> 1
    | (_, v) :: _ when v = 0. -> 0
    | [ _ ] -> 1
    | (j, _) :: tl -> check 0 j tl

  let add_row b kind ~rhs terms =
    List.iter
      (fun (j, _) ->
        if j < 0 || j >= b.nvars then
          invalid_arg "Lp.Builder.add_row: unknown variable index")
      terms;
    let coeffs =
      match strictly_monotone terms with
      | 1 -> Array.of_list terms
      | -1 ->
        let a = Array.of_list terms in
        let n = Array.length a in
        Array.init n (fun i -> a.(n - 1 - i))
      | _ ->
        let tbl = Hashtbl.create (List.length terms) in
        List.iter
          (fun (j, v) ->
            let prev = Option.value (Hashtbl.find_opt tbl j) ~default:0. in
            Hashtbl.replace tbl j (prev +. v))
          terms;
        let combined =
          Hashtbl.fold
            (fun j v acc -> if v <> 0. then (j, v) :: acc else acc)
            tbl []
          |> Array.of_list
        in
        Array.sort (fun (a, _) (b, _) -> compare a b) combined;
        combined
    in
    b.brows <- { kind; rhs; coeffs } :: b.brows

  let var_count b = b.nvars

  let build b =
    {
      nvars = b.nvars;
      objective = Array.of_list (List.rev b.objs);
      lower = Array.of_list (List.rev b.lowers);
      upper = Array.of_list (List.rev b.uppers);
      rows = Array.of_list (List.rev b.brows);
    }
end

let nvars t = t.nvars
let nrows t = Array.length t.rows

let nnz t =
  Array.fold_left (fun acc r -> acc + Array.length r.coeffs) 0 t.rows

let objective_value t x =
  if Array.length x <> t.nvars then
    invalid_arg "Lp.objective_value: dimension mismatch";
  Util.Vecops.dot t.objective x

let row_activity row x =
  Array.fold_left (fun acc (j, v) -> acc +. (v *. x.(j))) 0. row.coeffs

let max_violation t x =
  if Array.length x <> t.nvars then
    invalid_arg "Lp.max_violation: dimension mismatch";
  let worst = ref 0. in
  let note v = if v > !worst then worst := v in
  Array.iteri
    (fun j xj ->
      note (t.lower.(j) -. xj);
      if Float.is_finite t.upper.(j) then note (xj -. t.upper.(j)))
    x;
  Array.iter
    (fun r ->
      let a = row_activity r x in
      match r.kind with
      | Ge -> note (r.rhs -. a)
      | Le -> note (a -. r.rhs)
      | Eq -> note (Float.abs (a -. r.rhs)))
    t.rows;
  !worst

let with_var_bounds t j ~lo ~hi =
  if j < 0 || j >= t.nvars then
    invalid_arg "Lp.with_var_bounds: index out of range";
  if lo > hi then invalid_arg "Lp.with_var_bounds: lo > hi";
  let lower = Array.copy t.lower and upper = Array.copy t.upper in
  lower.(j) <- lo;
  upper.(j) <- hi;
  { t with lower; upper }

let with_rhs t updates =
  let nrows = Array.length t.rows in
  let rows = Array.copy t.rows in
  List.iter
    (fun (i, rhs) ->
      if i < 0 || i >= nrows then
        invalid_arg "Lp.with_rhs: row index out of range";
      rows.(i) <- { (rows.(i)) with rhs })
    updates;
  { t with rows }

let normalize_ge t =
  let flip r =
    match r.kind with
    | Ge | Eq -> r
    | Le ->
      {
        kind = Ge;
        rhs = -.r.rhs;
        coeffs = Array.map (fun (j, v) -> (j, -.v)) r.coeffs;
      }
  in
  { t with rows = Array.map flip t.rows }

let constraint_matrix t =
  let per_row =
    Array.map (fun r -> Array.to_list r.coeffs) t.rows
  in
  Sparse.of_row_list ~rows:(Array.length t.rows) ~cols:t.nvars per_row

let rhs_vector t = Array.map (fun r -> r.rhs) t.rows
