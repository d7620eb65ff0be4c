(** Compressed sparse row (CSR) matrices over floats.

    The first-order LP solver only needs [y <- A x] and [y <- A^T x]
    products, so this module stores one CSR image of the matrix and a
    precomputed transpose for cache-friendly products in both
    directions. Both images are readable, so a solver can form a row's
    or a column's product inline with its own update; only
    {!of_row_list} builds them. *)

type t = private {
  nrows : int;
  ncols : int;
  row_ptr : int array;
      (** length [nrows + 1]; row [i]'s entries are positions
          [row_ptr.(i)] to [row_ptr.(i + 1) - 1] of the next two *)
  col_idx : int array;  (** column of each entry, ascending within a row *)
  values : float array;  (** nonzero and finite *)
  colt_ptr : int array;
      (** length [ncols + 1]; the transpose (CSC) image in the same
          layout: column [j]'s entries are positions [colt_ptr.(j)] to
          [colt_ptr.(j + 1) - 1] of the next two *)
  rowt_idx : int array;  (** row of each entry, ascending within a column *)
  valuest : float array;
}

val nnz : t -> int

val of_row_list : rows:int -> cols:int -> (int * float) list array -> t
(** [of_row_list ~rows ~cols per_row] builds from per-row [(col, coeff)]
    lists. Duplicate column entries within a row are summed; entries whose
    sum is zero are dropped, so a row list that is already ascending,
    unique and nonzero is stored as it is, in its order. Column indices
    must be in range and every coefficient finite — a NaN or infinite
    coefficient raises [Invalid_argument] instead of silently producing a
    matrix on which the solvers cannot converge. Construction is a chain
    of counting sorts: linear in the entry count, no hashing or comparison
    sorts. *)

val mul : t -> float array -> float array -> unit
(** [mul a x y] computes [y <- A x]. Requires [length x = cols],
    [length y = rows]. *)

val mul_t : t -> float array -> float array -> unit
(** [mul_t a x y] computes [y <- A^T x]. Requires [length x = rows],
    [length y = cols]. *)

val row_abs_sums : t -> float array
(** Per-row sums of absolute values (PDHG preconditioner). *)

val col_abs_sums : t -> float array
(** Per-column sums of absolute values. *)
