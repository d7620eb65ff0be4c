(** Exact integer-programming solver by LP-based branch and bound.

    MC-PERF is an IP; the paper computes exact optima only at toy scale
    (Section 5: "feasible only at a very small scale"), and so does this
    module. It exists to (a) validate the LP-relaxation + rounding pipeline
    on instances where the exact optimum is known, and (b) execute the
    SET-COVER reduction of the NP-hardness proof (appendix, Theorem 1) as a
    test.

    The relaxation engine is the dense {!Lp.Simplex}; branching is
    most-fractional-variable, depth-first with incumbent pruning. *)

type result =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Node_limit of { incumbent : (float array * float) option }
      (** Search truncated; the best integral solution found so far, if
          any (an upper bound on the optimum, not a certificate). *)

val solve : ?max_nodes:int -> Lp.Problem.t -> result
(** [solve p] minimizes [p] with every variable restricted to integers
    (within [1e-6]). [max_nodes] bounds the search-tree size (default
    100_000). Variables are branched within their box
    bounds, so binaries are just variables with bounds [0, 1]. Raises
    [Invalid_argument] on an unbounded relaxation (MC-PERF instances are
    always bounded: every variable is boxed). *)
