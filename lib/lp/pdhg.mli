(** First-order LP solver: preconditioned primal–dual hybrid gradient
    (Chambolle–Pock, with the diagonal preconditioning of Pock–Chambolle
    2011).

    This is the scalable replacement for CPLEX. It needs only sparse
    matrix–vector products per iteration, so MC-PERF instances with 10^5+
    variables are tractable. Because the {!Certificate} bound is valid at
    every iterate, the solver can stop on an iteration budget and still
    return a usable (merely looser) lower bound; the [best_bound] field is
    the maximum certified bound seen at any checkpoint.

    An iteration's two sweeps run in C ([pdhg_stubs.c]); everything else,
    including the reference iteration {!solve_reference}, is OCaml. *)

type options = {
  max_iters : int;  (** hard iteration cap (default 20_000) *)
  check_every : int;  (** convergence/bound checkpoint period (default 50) *)
  rel_tol : float;  (** relative gap + infeasibility target (default 1e-6) *)
  restart_every : int;
      (** restart from the ergodic average every this many iterations
          (default 1_000; 0 disables). Restarting upgrades PDHG's
          sublinear tail to fast linear convergence on most LPs — the
          core trick of Google's PDLP. *)
  deadline_s : float;
      (** wall-clock budget for one solve (default [infinity] = none).
          Checked at checkpoints only, so the precision is one
          [check_every] block; when it fires, the solve returns the best
          certified bound seen so far — still valid by weak duality, just
          looser. With the default the clock is never read and iterates
          are bit-identical to a build without this feature. *)
}

val default_options : options

(** Why a solve returned. Every reason yields a valid [best_bound];
    [Deadline] and [Budget] simply mean the bound may be loose. *)
type stop_reason =
  | Converged  (** met [rel_tol] *)
  | Deadline  (** [deadline_s] expired at a checkpoint *)
  | Budget  (** ran all [max_iters] iterations *)

val stop_label : stop_reason -> string

type outcome = {
  x : float array;  (** final primal iterate (approximately feasible) *)
  y : float array;  (** final dual iterate *)
  best_bound : float;  (** best certified lower bound over all checkpoints *)
  best_y : float array;  (** dual iterate achieving [best_bound] *)
  primal_objective : float;  (** c . x at the final iterate *)
  primal_infeasibility : float;  (** max constraint/bound violation of x *)
  iterations : int;
  converged : bool;  (** met [rel_tol] before the iteration cap *)
  stop : stop_reason;  (** why the solve returned ([converged] iff [Converged]) *)
  rel_gap : float;
      (** relative primal-dual gap estimate at exit:
          [|c.x - best_bound| / (1 + |c.x| + |best_bound|)]; [infinity]
          when no finite bound was certified *)
}

type prepared
(** A problem together with its solver-ready image: the Ge-normalized
    rows, the CSR/CSC constraint matrix, the rhs vector and the diagonal
    preconditioners. Building this is O(nnz); a caller that solves the
    same problem many times (the Lagrangian, whose subproblem objective is
    rewritten in place between solves) builds it once. *)

val prepare : Problem.t -> prepared
(** [prepare p] builds the solver image of [p]. Raises [Invalid_argument]
    unless every variable has finite lower and upper bounds. *)

val prepared_problem : prepared -> Problem.t
(** The Ge-normalized problem underlying the prepared image (the form on
    which {!Certificate.dual_bound} certificates are valid). *)

val solve_prepared : ?options:options -> prepared -> outcome
(** Run the solver on a prepared image. One iteration is two sweeps over
    the image: a column sweep that forms (Aᵀ·y)_j and does column [j]'s
    step, box projection, extrapolation and averaging, then a row sweep
    that forms (A·x_bar)_i and does row [i]'s step, cone projection and
    averaging. The sweeps are two non-allocating C functions; the loop,
    restarts, checkpoints, spans and metrics are OCaml. The sweeps read
    the objective array of {!prepared_problem} itself, so a caller may
    rewrite it in place between solves.

    The C sweeps keep every per-element expression, its order and its
    association, and are compiled with floating-point contraction off
    (no fused multiply-add, no reassociation), so the outcome is
    bit-identical to {!solve_reference}'s. Their code is 32-byte aligned
    and, on x86-64, keeps every branch inside one 32-byte line, so their
    speed does not depend on how much code the linker places before
    them.

    A checkpoint evaluates the {!Certificate.dual_bound} and
    {!Problem.max_violation} of the iterate on the same image, bit-equal
    to those functions, in O(nnz) and with no allocation beyond a few
    boxed scalars. *)

val solve : ?options:options -> Problem.t -> outcome
(** [solve p] normalizes [p] with {!Problem.normalize_ge} and runs PDHG
    from the lower-bound corner with the dual at zero. Every variable
    must have finite lower and upper bounds (the MC-PERF builder
    guarantees this); otherwise [Invalid_argument] is raised. Equivalent
    to [solve_prepared (prepare p)]. *)

val solve_reference : ?options:options -> Problem.t -> outcome
(** The pre-fusion iteration — one OCaml pass per conceptual step — kept
    as the oracle for the differential tests. Produces the same iterates
    as {!solve} (bit-identical on finite data); it is only slower. *)
