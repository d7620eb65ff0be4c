/* The exact simplex's three hot loops over a dense tableau (see
   simplex.ml): the pivot, the reduced-cost recomputation and Bland's
   rule.

   Every comparison and every multiply-subtract keeps the order of the
   OCaml loops it replaced (kept as the test oracle), and the library
   builds this file with -ffp-contract=off and without -ffast-math, so
   gcc neither fuses a multiply-subtract nor reorders one: the pivot
   sequence and every entry of the tableau are bit-identical to theirs.

   The tableau arrives as the OCaml record itself, whose fields are read
   by position: the enum below lists the fields of [Simplex.tableau] in
   declaration order. [tab] is a block of rows, each a flat block of
   doubles; [basis], [nz] and the column-mask [allowed] are blocks of
   tagged values. Rows can be longer than [ncols + 1] (the shared
   scratch), so every loop is bounded by the [m] and [ncols] fields,
   never by a block's size. No function allocates, keeps state or raises
   ([@@noalloc]). */

#define CAML_NAME_SPACE
#include <math.h>
#include <caml/mlvalues.h>

enum { M, NCOLS, TAB, BASIS, REDUCED, NZ };

#define EPS 1e-9
#define ROW(t, i) ((double *) Field (Field (t, TAB), i))
#define REDUCED_ROW(t) ((double *) Field (t, REDUCED))

/* Subtracts [ri[col]] times the normalised pivot row [r] from [ri] at
   the pivot row's [k] nonzero columns [nz], then zeroes [ri[col]]; a
   row with a zero in the pivot column is left alone. */
static inline void eliminate (double *ri, const double *r, const value *nz,
                              intnat k, intnat col)
{
  double factor = ri[col];
  if (factor != 0.) {
    for (intnat q = 0; q < k; q++) {
      intnat j = Long_val (nz[q]);
      ri[j] = ri[j] - factor * r[j];
    }
    ri[col] = 0.;
  }
}

/* Normalises row [row] by its pivot entry and eliminates column [col]
   from every other row and then from [reduced]. Only the pivot row's
   nonzero columns, collected into [nz], are swept: at a column where
   that row holds +-0 a full sweep would subtract a signed zero, which
   leaves every nonzero entry as it is and can change only the sign of
   an entry that is already zero, and nothing reads that sign. */
static void pivot (value t, intnat row, intnat col)
{
  intnat m = Long_val (Field (t, M)), ncols = Long_val (Field (t, NCOLS));
  value *nz = (value *) Field (t, NZ);
  double *r = ROW (t, row);
  double piv = r[col];
  intnat k = 0;
  for (intnat j = 0; j <= ncols; j++) {
    double v = r[j];
    if (v != 0.) {
      r[j] = v / piv;
      nz[k++] = Val_long (j);
    }
  }
  for (intnat i = 0; i < m; i++)
    if (i != row) eliminate (ROW (t, i), r, nz, k, col);
  eliminate (REDUCED_ROW (t), r, nz, k, col);
  Field (Field (t, BASIS), row) = Val_long (col);
}

value simplex_pivot (value t, value row, value col)
{
  pivot (t, Long_val (row), Long_val (col));
  return Val_unit;
}

/* reduced = cost - sum over basic rows of cost(basis) * row, over the
   [ncols] columns and the rhs. */
value simplex_recompute_reduced (value t, value cost_v)
{
  intnat m = Long_val (Field (t, M)), ncols = Long_val (Field (t, NCOLS));
  const value *basis = (const value *) Field (t, BASIS);
  const double *cost = (const double *) cost_v;
  double *reduced = REDUCED_ROW (t);
  for (intnat j = 0; j < ncols; j++) reduced[j] = cost[j];
  reduced[ncols] = 0.;
  for (intnat i = 0; i < m; i++) {
    double cb = cost[Long_val (basis[i])];
    if (cb != 0.) {
      const double *r = ROW (t, i);
      for (intnat j = 0; j <= ncols; j++) reduced[j] = reduced[j] - cb * r[j];
    }
  }
  return Val_unit;
}

/* Bland's rule until optimal, unbounded or over [budget] pivots: the
   entering column is the first allowed one with reduced cost below
   -EPS, and the leaving row the lowest ratio over entries above EPS,
   ties within EPS going to the lowest basic index. The result packs
   the verdict with the pivots made: 2 * pivots when optimal,
   2 * pivots + 1 when unbounded, -1 when the budget ran out. */
value simplex_iterate (value t, value allowed, value budget_v)
{
  intnat m = Long_val (Field (t, M)), ncols = Long_val (Field (t, NCOLS));
  const value *basis = (const value *) Field (t, BASIS);
  const double *reduced = REDUCED_ROW (t);
  intnat budget = Long_val (budget_v);
  for (intnat pivots = 0;; pivots++) {
    if (pivots > budget) return Val_long (-1);
    intnat col = -1;
    for (intnat j = 0; j < ncols; j++)
      if (Bool_val (Field (allowed, j)) && reduced[j] < -EPS) {
        col = j;
        break;
      }
    if (col < 0) return Val_long (2 * pivots);
    intnat best_row = -1;
    double best_ratio = INFINITY;
    for (intnat i = 0; i < m; i++) {
      const double *ri = ROW (t, i);
      double a = ri[col];
      if (a > EPS) {
        double ratio = ri[ncols] / a;
        if (ratio < best_ratio - EPS
            || (ratio < best_ratio + EPS
                && (best_row < 0
                    || Long_val (basis[i]) < Long_val (basis[best_row])))) {
          best_ratio = ratio;
          best_row = i;
        }
      }
    }
    if (best_row < 0) return Val_long (2 * pivots + 1);
    pivot (t, best_row, col);
  }
}
