(** Exact dense two-phase simplex.

    Solves small LP instances to optimality; used for validation-sized
    MC-PERF models, for the Lagrangian's per-object subproblems, as the
    relaxation engine inside the branch-and-bound IP solver, and as the
    ground-truth oracle in the test suite. Bland's rule
    is used throughout, so the method terminates on degenerate instances
    (set-cover relaxations are heavily degenerate).

    Dense tableau: one row per constraint and per finite upper bound, one
    column per variable, slack and artificial, so O(rows * columns)
    memory. A pivot eliminates only over the pivot row's nonzeros: its
    work is the rows with a nonzero in the pivot column times the
    nonzeros of the pivot row, plus one pass over that row and that
    column. The pivot, the reduced-cost recomputation and Bland's loop
    are a C kernel that allocates nothing; its pivot sequence and every
    value are bit-identical to the OCaml loops it replaced. Intended for
    problems with at most a few hundred rows and variables; large
    instances go to {!Pdhg}. *)

type result =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

val solve : Problem.t -> result
(** [solve p] requires every variable to have a finite lower bound (upper
    bounds may be infinite). Raises [Failure] after 100,000 pivots, which
    indicates a bug rather than a hard instance at the intended scale. *)

(** Like {!result}, but every terminal verdict ships its witness:

    - [Cert_optimal.dual] are the simplex multipliers of the original
      rows, mapped onto {!Problem.normalize_ge}[ p] — feeding them to
      {!Certificate.dual_bound} on that normalized problem reproduces
      [objective] (up to rounding). Bound-row multipliers are omitted:
      the certificate evaluator re-derives them optimally from the box,
      which preserves both validity and tightness.
    - [Cert_infeasible.ray] is the optimal phase-1 dual vector restricted
      to the original rows, a Farkas ray on the normalized problem
      accepted by {!Certificate.check_farkas}. *)
type certified =
  | Cert_optimal of { x : float array; objective : float; dual : float array }
  | Cert_infeasible of { ray : float array }
  | Cert_unbounded

val solve_certified : Problem.t -> certified
(** {!solve} with certificates; identical pivot sequence, so the primal
    answers are bit-identical to {!solve}'s. Runs phase 2 on
    [prepare p]'s own tableau, without a copy. *)

(** {2 Re-solving under new objectives}

    The tableau build, phase 1 and the drive-out of the remaining
    artificials read only the rows and the box, never the objective. A
    caller that solves the same constraints under many objectives (the
    Lagrangian, whose subproblem objective is rewritten in place for every
    multiplier vector) pays them once in {!prepare}; each
    {!solve_prepared} then costs one copy of the tableau (rows x columns
    floats) into a scratch tableau shared by every prepared value, plus
    the phase-2 pivots. *)

type prepared
(** The tableau after phase 1 and the drive-out, or the Farkas ray phase
    1 found. *)

val prepare : Problem.t -> prepared
(** [prepare p] runs everything up to phase 2. It raises what {!solve}
    raises before phase 2, emits no trace event and counts no solve. [p]
    is kept, not copied: its rows and bounds must not change afterwards,
    while its objective may. *)

val solve_prepared : prepared -> certified
(** [solve_prepared pr] runs phase 2 under the current objective of the
    problem [pr] was prepared from, on a copy of [pr]'s tableau in one
    scratch tableau per process, grown to the largest shape solved so
    far. So [pr] is unchanged, every call sees the same phase-1 state,
    and re-solving many prepared values keeps only their own tableaus,
    not a scratch each, in memory. The outcome,
    down to every bit of [x], [objective], [dual] and the Farkas ray, is
    {!solve_certified}'s on that problem; so are the trace events and
    the [simplex.solves] and [simplex.pivots] counts, which include the
    phase-1 pivots of the preparation. *)
