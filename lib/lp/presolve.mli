(** LP presolve: cheap problem reductions applied before the solvers.

    MC-PERF models carry easy slack — variables fixed by their bounds
    (e.g. create variables forced to 0 by the permission constraints),
    singleton rows that are really bounds, empty rows, and variables that
    appear in no constraint. Removing them shrinks the first-order
    solver's working set and tightens its preconditioners.

    Soundness: the reduced problem has the same optimal value minus
    [offset]; [restore] lifts any reduced-feasible point to an
    original-feasible point with objective increased by exactly [offset].
    A lower bound for the reduced problem plus [offset] is therefore a
    valid lower bound for the original. *)

type result = {
  reduced : Problem.t;
  offset : float;
      (** objective contribution of eliminated variables at their fixed
          values *)
  restore : float array -> float array;
      (** lift a reduced solution vector back to the original space *)
  var_map : int array;
      (** original variable index -> reduced index, or [-1] when the
          variable was eliminated (the identity when nothing changed) *)
  status : [ `Reduced | `Infeasible | `Unchanged ];
  fixed_vars : int;  (** variables eliminated *)
  dropped_rows : int;  (** rows eliminated *)
}

val run : ?fix_unreferenced_vars:bool -> Problem.t -> result
(** [run p] applies, to fixpoint (at most 10 passes):

    - bound-fixed variables ([lo = hi]) are substituted out;
    - empty rows are checked and dropped (or the problem is declared
      [`Infeasible]);
    - singleton rows become variable-bound tightenings (which may fix more
      variables, or expose infeasibility when bounds cross);
    - variables outside every row are fixed at whichever finite bound
      minimizes the objective (requires the bound on that side to be
      finite; otherwise the variable is kept).

    Rows whose coefficients all vanish after substitution are validated
    against their rhs like empty rows.

    [fix_unreferenced_vars] (default [true]) controls the last rule — the
    only one that inspects the objective. With it disabled the reduction
    is valid for {e any} objective over the same constraint structure,
    which lets callers that rewrite objective coefficients in place
    between solves (the Lagrangian pricing loop) presolve once and reuse
    the reduction; the per-objective offset of the eliminated variables is
    [dot objective (restore zeros)]. *)
