/* PDHG's two sweeps over the prepared image (see pdhg.ml).

   Each sweep forms one sparse product entry by entry and consumes it at
   once. Every per-element expression keeps the order and association of
   [Pdhg.solve_reference]'s passes, and the library builds this file with
   -ffp-contract=off and without -ffast-math, so gcc neither fuses a
   multiply-add nor reassociates a sum: the iterates are bit-identical
   to the reference's.

   Both records arrive as OCaml blocks whose fields are read by
   position: the enums below list the first thirteen fields of
   [Pdhg.prepared] and the fields of [Pdhg.iterate] in declaration order.
   Float arrays are flat blocks of doubles, index arrays blocks of tagged
   ints, and a length is the block's size, so an empty array (the
   zero-size atom) runs no loop. Neither stub allocates or raises
   ([@@noalloc]). */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

enum { COLT_PTR, ROWT_IDX, VALUEST, ROW_PTR, COL_IDX, VALUES, C, LOWER, UPPER,
       TAU, B, IS_EQ, SIGMA };
enum { X, Y, X_BAR, X_SUM, Y_SUM };

#define FLOATS(v, f) ((double *) Field (v, f))
#define INTS(v, f) ((const value *) Field (v, f))

/* Column sweep (CSC): (A^T y)_j, then column j's primal step, box
   projection, extrapolation to x_bar and average accumulation. */
value pdhg_column_sweep (value img, value it)
{
  const value *colt_ptr = INTS (img, COLT_PTR), *rowt_idx = INTS (img, ROWT_IDX);
  const double *valuest = FLOATS (img, VALUEST), *c = FLOATS (img, C);
  const double *lower = FLOATS (img, LOWER), *upper = FLOATS (img, UPPER);
  const double *tau = FLOATS (img, TAU), *y = FLOATS (it, Y);
  double *x = FLOATS (it, X), *x_bar = FLOATS (it, X_BAR);
  double *x_sum = FLOATS (it, X_SUM);
  mlsize_t n = Wosize_val (Field (it, X)) / Double_wosize;
  for (mlsize_t j = 0; j < n; j++) {
    double aty = 0.;
    intnat end = Long_val (colt_ptr[j + 1]);
    for (intnat q = Long_val (colt_ptr[j]); q < end; q++)
      aty = aty + valuest[q] * y[Long_val (rowt_idx[q])];
    double xj = x[j];
    double g = c[j] - aty;
    double v = xj - tau[j] * g;
    double l = lower[j], h = upper[j];
    double xn = v < l ? l : (v > h ? h : v);
    x[j] = xn;
    x_bar[j] = 2. * xn - xj;
    x_sum[j] = x_sum[j] + xn;
  }
  return Val_unit;
}

/* Row sweep (CSR): (A x_bar)_i, then row i's dual step, cone projection
   (Ge duals to [+0, +inf]) and average accumulation. */
value pdhg_row_sweep (value img, value it)
{
  const value *row_ptr = INTS (img, ROW_PTR), *col_idx = INTS (img, COL_IDX);
  const value *is_eq = INTS (img, IS_EQ);
  const double *values = FLOATS (img, VALUES), *b = FLOATS (img, B);
  const double *sigma = FLOATS (img, SIGMA), *x_bar = FLOATS (it, X_BAR);
  double *y = FLOATS (it, Y), *y_sum = FLOATS (it, Y_SUM);
  mlsize_t m = Wosize_val (Field (it, Y)) / Double_wosize;
  for (mlsize_t i = 0; i < m; i++) {
    double ax_bar = 0.;
    intnat end = Long_val (row_ptr[i + 1]);
    for (intnat q = Long_val (row_ptr[i]); q < end; q++)
      ax_bar = ax_bar + values[q] * x_bar[Long_val (col_idx[q])];
    double yi = y[i] + sigma[i] * (b[i] - ax_bar);
    if (!Bool_val (is_eq[i])) yi = yi > 0. ? yi : 0.;
    y[i] = yi;
    y_sum[i] = y_sum[i] + yi;
  }
  return Val_unit;
}
