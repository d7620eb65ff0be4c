(** Minimal-parameter search for deployed heuristics.

    Heuristic families are parameterized by a scalar knob — cache capacity,
    replication factor — and the designer wants the smallest knob value
    that meets the performance goal. Bisection finds it only if meeting
    the goal is monotone in the knob. LRU's inclusion property and the
    greedy placements' growth with their budget argue it; FIFO has no
    inclusion property (Belady's anomaly), so for every registered
    strategy a test checks it parameter by parameter on the pinned
    case-study grids instead. The smallest goal-meeting parameter is not
    always the cheapest: a larger cache stores more but fills less, and
    each fill is a replica creation (ROADMAP item 11).

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
