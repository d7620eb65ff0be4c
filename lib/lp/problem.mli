(** Linear programs in general computational form.

        minimize    c . x
        subject to  a_i . x  {>=, <=, =}  b_i      for each row i
                    l_j <= x_j <= u_j              for each variable j

    This is the interchange type between the MC-PERF model builder and the
    two solvers (exact dense simplex, first-order PDHG). *)

type row_kind = Ge | Le | Eq

type row = {
  kind : row_kind;
  rhs : float;
  coeffs : (int * float) array;
      (** strictly ascending by variable index (so unique), every
          coefficient nonzero: {!Builder} sums repeats and drops zero
          sums, and [t] is private, so every row of a [t] has this form.
          PDHG's checkpoints rely on it: {!Sparse.of_row_list} stores such
          a row unchanged, so the solver can evaluate certificates on its
          CSR/CSC image bit-equal to these rows. *)
}

type t = private {
  nvars : int;
  objective : float array;
  lower : float array;
  upper : float array;  (** may be [infinity] *)
  rows : row array;
}

(** Incremental construction. *)
module Builder : sig
  type problem := t
  type t

  val create : unit -> t

  val add_var : t -> ?lo:float -> ?hi:float -> obj:float -> unit -> int
  (** Returns the new variable's index. Defaults: [lo = 0.], [hi = infinity].
      Requires [lo <= hi]. *)

  val add_row : t -> row_kind -> rhs:float -> (int * float) list -> unit
  (** Terms may repeat a variable (coefficients are summed). All variable
      indices must already exist. *)

  val var_count : t -> int

  val build : t -> problem
end

val nvars : t -> int
val nrows : t -> int
val nnz : t -> int

val objective_value : t -> float array -> float

val max_violation : t -> float array -> float
(** Largest constraint or bound violation of a point (0. if feasible). *)

val with_var_bounds : t -> int -> lo:float -> hi:float -> t
(** Functional update of one variable's box bounds (rows and objective are
    shared with the original). Used by the branch-and-bound solver. *)

val with_rhs : t -> (int * float) list -> t
(** [with_rhs t updates] replaces the rhs of the listed rows (functional
    update; every untouched row is shared with the original). The sweep's
    [diverge] fault injection uses it to poison one row. *)

val normalize_ge : t -> t
(** Rewrite every [Le] row as a [Ge] row (negating coefficients and rhs).
    [Eq] rows are kept. The solvers and the dual certificate assume this
    form. Idempotent. *)

val constraint_matrix : t -> Sparse.t
(** Rows-by-vars sparse matrix of the row coefficients. *)

val rhs_vector : t -> float array
