type t = {
  nrows : int;
  ncols : int;
  (* CSR image *)
  row_ptr : int array;  (* length nrows + 1 *)
  col_idx : int array;
  values : float array;
  (* CSC image (transpose in CSR layout) *)
  colt_ptr : int array;  (* length ncols + 1 *)
  rowt_idx : int array;
  valuest : float array;
}


(* Construction is a chain of counting sorts — no hashing, no polymorphic
   comparison, every pass linear in the number of entries:

   1. one validating pass over the input lists counts entries per column;
   2. a scatter pass lays the entries out column-major (CSC); scanning the
      rows in order makes row indices ascending within each column;
   3. a counting transpose back to row-major leaves each row's columns
      sorted, so duplicates sit adjacent and are merged in place (entries
      summing to zero are dropped, as before);
   4. the final CSC image for [mul_t] is a counting transpose of the
      compacted CSR. *)
let of_row_list ~rows ~cols per_row =
  if Array.length per_row <> rows then
    invalid_arg "Sparse.of_row_list: row array length mismatch";
  let col_count = Array.make (cols + 1) 0 in
  let total = ref 0 in
  Array.iter
    (fun entries ->
      List.iter
        (fun (j, v) ->
          if j < 0 || j >= cols then
            invalid_arg "Sparse.of_row_list: column index out of range";
          if not (Float.is_finite v) then
            invalid_arg
              "Sparse.of_row_list: non-finite coefficient (NaN or infinity)";
          col_count.(j + 1) <- col_count.(j + 1) + 1;
          incr total)
        entries)
    per_row;
  let total = !total in
  for j = 1 to cols do
    col_count.(j) <- col_count.(j) + col_count.(j - 1)
  done;
  (* Scatter into column-major order (rows ascending within a column). *)
  let cur = Array.copy col_count in
  let by_col_row = Array.make total 0 in
  let by_col_val = Array.make total 0. in
  Array.iteri
    (fun i entries ->
      List.iter
        (fun (j, v) ->
          let p = Array.unsafe_get cur j in
          Array.unsafe_set by_col_row p i;
          Array.unsafe_set by_col_val p v;
          Array.unsafe_set cur j (p + 1))
        entries)
    per_row;
  (* Transpose back to row-major: columns ascending within each row. *)
  let row_count = Array.make (rows + 1) 0 in
  for p = 0 to total - 1 do
    let i = Array.unsafe_get by_col_row p in
    row_count.(i + 1) <- row_count.(i + 1) + 1
  done;
  for i = 1 to rows do
    row_count.(i) <- row_count.(i) + row_count.(i - 1)
  done;
  let rcur = Array.copy row_count in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0. in
  for j = 0 to cols - 1 do
    for p = col_count.(j) to col_count.(j + 1) - 1 do
      let i = Array.unsafe_get by_col_row p in
      let q = Array.unsafe_get rcur i in
      Array.unsafe_set col_idx q j;
      Array.unsafe_set values q (Array.unsafe_get by_col_val p);
      Array.unsafe_set rcur i (q + 1)
    done
  done;
  (* Merge adjacent duplicates and drop zero sums, compacting in place. *)
  let row_ptr = Array.make (rows + 1) 0 in
  let w = ref 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i) <- !w;
    let p = ref row_count.(i) in
    let stop = row_count.(i + 1) in
    while !p < stop do
      let j = Array.unsafe_get col_idx !p in
      let acc = ref (Array.unsafe_get values !p) in
      incr p;
      while !p < stop && Array.unsafe_get col_idx !p = j do
        acc := !acc +. Array.unsafe_get values !p;
        incr p
      done;
      if !acc <> 0. then begin
        Array.unsafe_set col_idx !w j;
        Array.unsafe_set values !w !acc;
        incr w
      end
    done
  done;
  row_ptr.(rows) <- !w;
  let kept = !w in
  let col_idx = Array.sub col_idx 0 kept in
  let values = Array.sub values 0 kept in
  (* Final transpose image for [mul_t]. *)
  let colt_ptr = Array.make (cols + 1) 0 in
  Array.iter (fun j -> colt_ptr.(j + 1) <- colt_ptr.(j + 1) + 1) col_idx;
  for j = 1 to cols do
    colt_ptr.(j) <- colt_ptr.(j) + colt_ptr.(j - 1)
  done;
  let rowt_idx = Array.make kept 0 in
  let valuest = Array.make kept 0. in
  let cursor = Array.copy colt_ptr in
  for i = 0 to rows - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = Array.unsafe_get col_idx p in
      let q = Array.unsafe_get cursor j in
      Array.unsafe_set rowt_idx q i;
      Array.unsafe_set valuest q (Array.unsafe_get values p);
      Array.unsafe_set cursor j (q + 1)
    done
  done;
  { nrows = rows; ncols = cols; row_ptr; col_idx; values;
    colt_ptr; rowt_idx; valuest }

(* The matvec kernels carry the whole PDHG iteration; indices are
   internally consistent by construction, so after the one dimension check
   the loops run unchecked. *)

let mul t x y =
  if Array.length x <> t.ncols || Array.length y <> t.nrows then
    invalid_arg "Sparse.mul: dimension mismatch";
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = 0 to t.nrows - 1 do
    let acc = ref 0. in
    for p = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1
    do
      acc :=
        !acc
        +. (Array.unsafe_get values p
            *. Array.unsafe_get x (Array.unsafe_get col_idx p))
    done;
    Array.unsafe_set y i !acc
  done

let mul_t t x y =
  if Array.length x <> t.nrows || Array.length y <> t.ncols then
    invalid_arg "Sparse.mul_t: dimension mismatch";
  let colt_ptr = t.colt_ptr and rowt_idx = t.rowt_idx and valuest = t.valuest in
  for j = 0 to t.ncols - 1 do
    let acc = ref 0. in
    for p = Array.unsafe_get colt_ptr j to Array.unsafe_get colt_ptr (j + 1) - 1
    do
      acc :=
        !acc
        +. (Array.unsafe_get valuest p
            *. Array.unsafe_get x (Array.unsafe_get rowt_idx p))
    done;
    Array.unsafe_set y j !acc
  done

let row_abs_sums t =
  Array.init t.nrows (fun i ->
      let acc = ref 0. in
      for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. Float.abs t.values.(p)
      done;
      !acc)

let col_abs_sums t =
  let sums = Array.make t.ncols 0. in
  Array.iteri
    (fun p j -> sums.(j) <- sums.(j) +. Float.abs t.values.(p))
    t.col_idx;
  sums
