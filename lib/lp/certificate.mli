(** Certified lower bounds from (possibly non-optimal) dual vectors.

    For the minimization problem in [Ge]/[Eq]-normalized form

        min c.x   s.t.  A x >= b (rows Ge), A x = b (rows Eq),
                        l <= x <= u,

    weak duality gives, for ANY multiplier vector [y] with [y_i >= 0] on
    the Ge rows (free on Eq rows):

        opt >= b.y + sum_j min(r_j * l_j, r_j * u_j)
        where r = c - A^T y.

    This holds regardless of how [y] was produced, so a truncated PDHG run
    still yields a mathematically valid lower bound — the property the
    paper's methodology needs from its LP relaxations. The bound degrades
    gracefully with dual suboptimality. If some variable has [u_j =
    infinity] and [r_j < 0], the bound is [neg_infinity]; the MC-PERF
    builder therefore gives every variable a finite upper bound. *)

val dual_bound : Problem.t -> y:float array -> float
(** [dual_bound p ~y] computes the bound above. The problem must be in
    normalized form ({!Problem.normalize_ge}); [Le] rows are rejected.
    Negative entries of [y] on Ge rows are clamped to 0 (which preserves
    validity), so any real vector is accepted. *)

(** {2 Farkas infeasibility certificates}

    Dropping the objective from the weak-duality bound turns a dual
    vector into an infeasibility test: for any [ray] with [ray_i >= 0] on
    Ge rows (free on Eq rows), the {e margin}

        margin(ray) = b.ray - sup over the box of (A^T ray).x

    satisfies [margin <= 0] whenever the problem has a feasible point
    (plug the point into the supremum). A strictly positive margin is
    therefore a self-contained proof of infeasibility — a Farkas
    certificate — checkable by pure arithmetic, independent of whichever
    solver produced the ray. *)

val check_farkas : Problem.t -> ray:float array -> bool
(** [check_farkas p ~ray] accepts iff [ray] has the right dimension, is
    everywhere finite, and its margin on the Ge-normalized [p] (negative
    Ge entries of [ray] clamped to 0, which preserves the guarantee)
    strictly exceeds [1e-9 * (1 + sum_i |ray_i * b_i|)] — i.e. the
    infeasibility proof survives a conservative rounding-error allowance.
    Never raises: malformed input is simply rejected. *)

val row_farkas : Problem.t -> float array option
(** Cheap single-row certificate scan: the first row whose left-hand side
    cannot reach its rhs anywhere in the variable box yields a unit ray
    (negated for an Eq row violated from above). This covers the MC-PERF
    infeasibility pattern — a QoS row asking for more coverage than the
    box allows — without running any solver. The returned ray always
    passes {!check_farkas}. *)
