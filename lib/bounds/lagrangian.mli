(** Lagrangian-decomposition lower bounds for MC-PERF.

    The only constraints of the basic QoS formulation that couple objects
    are the per-user QoS rows (2). Relaxing them with multipliers
    [lambda_n >= 0] makes the problem separate into one small subproblem
    per object:

    {v
    L(lambda) = sum_n lambda_n * T_n
              + sum_k min { cost_k(x_k) - sum_n lambda_n * coverage_nk(x_k) }
    v}

    and weak duality gives [L(lambda) <= LP optimum <= IP optimum] for
    {e every} non-negative [lambda] — the same always-valid-bound property
    as {!Lp.Certificate}, obtained by a different route. Each subproblem
    is solved exactly (dense simplex) when small, or itself lower-bounded
    by a short PDHG run's dual certificate when large; both compose into a
    valid overall bound.

    Why this exists alongside the monolithic LP: the subproblems have
    constant size as |K| grows, so this path scales to object counts
    where even the first-order solver's per-iteration cost hurts (the
    paper reports 12-hour CPLEX runs at K = 1000). It also cross-checks
    the PDHG bounds in the test suite.

    {b Scaling.} {e Bundling} ({!Mcperf.Bundle}) pushes this route to
    200+ nodes and 10k+ objects: objects whose permission masks and read
    cells are identical up to the demand weight share one representative
    subproblem; on homogeneous bundles (equal weights) the merged totals
    are bitwise those of solving every member, so the bundled bound
    equals the unbundled one exactly, and heterogeneous members transfer
    the representative's optimum rescaled by [w / w_rep] with a
    conservative downward nudge (counted in [rescaled_members]) that
    keeps the bound valid. Each iteration solves the representatives in
    order in the calling process. Fanning them out over a fork pool lost
    on a 2-vCPU machine: [experiments figscale] on the 229-node CDN
    family (3 QoS points x 40 iterations) took 1.32–1.58 s at one worker
    against 2.91–3.72 s at two and 4.17–5.02 s at four with 10 000
    objects, and 0.94–1.23 s against 1.98–2.12 s and 3.01–3.32 s with
    2 000 — the per-iteration subproblems are too small to pay for the
    dispatch.

    Class support: knowledge/history/reactivity/routing properties are
    honored exactly (they live in the per-object permission masks); the
    per-object replica constraint (17a) is honored exactly; the uniform
    replica constraint and the storage constraints couple objects and are
    dropped, which keeps the bound valid for the class (dropping
    constraints can only lower a minimum) but makes it no tighter than the
    corresponding unconstrained-storage bound. *)

(** Step-size schedule of the projected subgradient ascent, in units of
    [unit_cost = max (alpha + beta) 1e-6] from the spec's costs. Both
    rules depend only on past iterations, so the trajectory at a smaller
    iteration budget is a prefix of the one at a larger budget and the
    best bound is monotone nondecreasing in the budget. *)
type step_rule =
  | Harmonic  (** classic divergent-series rule: [unit_cost / (1+t)] *)
  | Adaptive
      (** Polyak-style geometric backoff: start at [unit_cost] and halve
          after three consecutive non-improving iterations — typically
          far fewer outer iterations to a given bound on large
          instances *)

type outcome = {
  bound : float;  (** best certified lower bound over all iterations *)
  iterations : int;
  lambda : float array;  (** multipliers achieving [bound] *)
  subproblems_exact : int;
      (** representative solves settled exactly (simplex / fixed point) *)
  subproblems_bounded : int;
      (** representative solves lower-bounded by PDHG *)
  objects : int;  (** objects covered by the decomposition *)
  bundles : int;  (** representative subproblems actually solved *)
  rescaled_members : int;
      (** members merged through the guarded weight rescale (0 on a
          homogeneous instance — the bound is then exactly the unbundled
          one) *)
}

val sweep :
  ?iterations:int ->
  ?step_rule:step_rule ->
  ?bundling:bool ->
  Mcperf.Spec.t ->
  Mcperf.Classes.t ->
  fractions:float list ->
  (float * outcome) list
(** Projected subgradient ascent on the QoS multipliers at each QoS
    fraction ([iterations] default 60, [step_rule] default {!Harmonic} —
    the historical schedule, [bundling] default on), sharing the
    permission analysis, the bundling, and every representative
    subproblem across the whole sweep (the masks never read the
    fraction); multipliers restart cold at each point. Requires a QoS
    goal. Points where the class is infeasible (by the
    {!Mcperf.Permission} oracle) yield [infinity]. Each outcome is
    independent of [bundling] whenever [rescaled_members = 0]. *)

val bound :
  ?iterations:int ->
  ?step_rule:step_rule ->
  ?bundling:bool ->
  Mcperf.Spec.t ->
  Mcperf.Classes.t ->
  outcome
(** {!sweep} at the spec's own QoS fraction alone. Requires a QoS
    goal. *)
