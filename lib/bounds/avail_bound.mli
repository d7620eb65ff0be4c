(** Availability-aware bound producers (the scenario side of the
    pipeline).

    Two producers ride alongside {!Pipeline.compute}'s nominal bound:

    {b Expected-cost scenario LP.} For a sampled correlated-failure
    scenario set (uniform weights), any placement's expected degraded
    cost — {!Avail.Survive.degrade} averaged over the scenarios — is
    bounded below by an LP: the MC-PERF storage/creation relaxation,
    the nominal QoS rows (the placement must meet the goal when
    everything is up), and per-scenario coverage terms pricing each
    read cell at its degraded fallback (the origin's latency penalty
    while the origin survives, {!Avail.Survive.miss_penalty} when it
    does not; reads from failed client sites pay the miss price
    outright). Coverage by a {e surviving} reachable replica discharges
    the price. Class storage/replica couplings are deliberately
    relaxed (padding is not charged), so the optimum is a valid — if
    slightly loose — lower bound for every placement of the class, and
    for the general class a bound on {e every} evaluated placement.
    Each call builds and solves one model, cold.

    {b Worst-case k-failure check.} For each failure group, fail its
    worst [k = 2] members (exhaustively for small groups, by demand-severity
    otherwise) and re-price the placement; a placement "survives" a
    group when the worst-case QoS-violation fraction stays within the
    goal's allowance. *)

type cell = {
  class_name : string;
  fraction : float;  (** nominal QoS target the cell was solved at *)
  feasible : bool;
  expected_bound : float;
      (** certified lower bound on the expected degraded cost of any
          class placement meeting the goal; [infinity] when infeasible *)
  nominal_vars : int;  (** variables in the nominal part of the model *)
  vars : int;
  rows : int;
  exact : bool;  (** solved exactly (simplex or presolve) *)
  iterations : int;  (** PDHG iterations (0 for simplex) *)
}

val expected_cost_bound :
  ?solver:Pipeline.solver ->
  Mcperf.Spec.t ->
  Mcperf.Classes.t ->
  scenarios:Avail.Scenario.t array ->
  cell
(** The cell at the spec's own goal, every node placeable, solved on the
    cell chain's LP leg, {!Pipeline.solve_lp} ([solver] default [Auto]):
    presolved, routed on the model's dimensions, health-checked under
    PDHG. Requires a QoS-goal spec and a non-empty scenario set; raises
    [Failure] when both PDHG attempts are unhealthy. The result is a pure
    function of (spec, class, scenarios) — byte-identical at any
    parallelism level of the caller. *)

type group_check = {
  group : string;
  size : int;
  failed : int array;  (** the worst-case member subset that was failed *)
  violation : float;  (** QoS-violation fraction under that failure *)
  unavail_fraction : float;
  cost_ratio : float;  (** degraded cost / nominal cost *)
  survives : bool;  (** [violation] within the goal's allowance *)
}

val k_failure_check :
  Mcperf.Permission.t ->
  Mcperf.Costing.placement ->
  groups:Avail.Groups.t array ->
  group_check array
(** Worst-case 2-failure per group, one entry per group in group order.
    Subsets are enumerated exhaustively while [size choose 2] stays small
    (<= 2048) and otherwise seeded greedily from the members hosting the
    most weighted demand and replica mass; either way the choice is
    deterministic. A group survives when its violation stays within the
    goal's own allowance ([1 - fraction] for QoS goals, 0 for
    average-latency goals). *)
