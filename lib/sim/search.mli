(** Minimal-parameter search for deployed heuristics.

    Heuristic families are parameterized by a scalar knob — cache capacity,
    replication factor — and the designer wants the smallest knob value
    that meets the performance goal (storage cost grows with the knob).
    Feasibility is monotone for these families (LRU contents satisfy the
    inclusion property; the greedy placements only grow with their
    budget), so one sequential bisection applies.

    The search is {e anytime}: the upper bracket end is feasible by
    invariant, so when the ambient per-task budget expires
    ({!Util.Parallel.task_expired}) the search stops refining and returns
    the current feasible end — a valid, merely non-minimal, parameter.
    Unbudgeted runs never consult the clock. *)

val min_feasible_int : lo:int -> hi:int -> (int -> bool) -> int option
(** [min_feasible_int ~lo ~hi feasible] is the smallest [p] in
    [\[lo, hi\]] with [feasible p], assuming monotonicity
    ([feasible p] implies [feasible (p+1)]). [None] when even [hi] fails.
    [feasible] is invoked O(log (hi - lo)) times. Requires [lo <= hi]. *)
