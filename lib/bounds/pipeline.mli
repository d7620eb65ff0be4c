(** The lower-bound pipeline of the paper's methodology (Sections 5–6.1).

    Every bound is built from one unit, the cell: one (class, goal) pair
    run through one chain —

    + the {!Mcperf.Permission} feasibility oracle — if the class cannot
      reach the goal at all (e.g. caching above its cold-miss ceiling), no
      LP is solved, and the class is reported infeasible with a verified
      Farkas ray as its witness;
    + under [Auto], the exact tree DP: when the spec is a tree instance
      within {!Tree_dp}'s proven-exact scope, the closest-allocation DP
      computes the true integer optimum directly — the cell's
      [lower_bound] and [rounded] solution coincide, [quality] is [Exact],
      [solve_path] is [Path_tree_dp] and the gap is zero by construction;
      ineligible or unverified instances fall through to the LP;
    + the MC-PERF LP relaxation ({!Mcperf.Model}), built fresh for the
      cell;
    + its solve — on the solver {!route} picks: exactly with the dense
      simplex for small models, or with PDHG from a cold start + the
      always-valid dual certificate for large ones;
    + rounding of the fractional solution to a feasible integral
      placement ({!Rounding.Round}, or {!Rounding.Round_avg} under an
      average-latency goal), whose cost bounds the lower bound's
      tightness from above.

    Every cell comes from {!compute}: {!sweep_classes}, the selection
    methodology and the online engine all call it, and no solver state
    passes from one cell to the next, so a cell's result is a pure
    function of [(solver, placeable, spec, class)] whoever asks for it.

    The designer then compares classes on [lower_bound] (Figure 1) and
    checks deployed heuristics against them (Figure 2). *)

type solver =
  | Auto
      (** dense simplex when the model is small enough, PDHG otherwise *)
  | Exact_simplex
  | First_order of Lp.Pdhg.options

(** Which leg of the solver fallback chain produced a cell's bound. The
    PDHG leg guards its own numerical health: an outcome with non-finite
    scalars or iterates, or whose certified bound cannot be reproduced by
    re-evaluating {!Lp.Certificate.dual_bound} at the best dual iterate,
    is discarded and the cell is re-solved cold on a clean rebuild
    ([Path_pdhg_retry]). The chain ends there: a retry that is unhealthy
    too means the LP itself is unsound, and {!compute} raises [Failure]
    naming the [pdhg-retry] leg. Because both attempts start cold on the
    same reduced problem, a retry after input poisoning yields exactly
    the values an unfaulted solve produces — only this tag records that
    recovery happened. *)
type solve_path =
  | Path_presolve  (** presolve fixed every variable; no solver ran *)
  | Path_tree_dp
      (** {!Tree_dp} solved the cell exactly — tree topology within the
          DP's proven-exact scope; no LP was built, the bound is the true
          integer optimum and the gap is zero by construction *)
  | Path_simplex  (** primary exact simplex (small models) *)
  | Path_pdhg  (** primary PDHG solve, numerically healthy *)
  | Path_pdhg_retry  (** first PDHG attempt unhealthy; clean retry accepted *)
  | Path_infeasible  (** the feasibility oracle or the LP said no *)

val path_label : solve_path -> string

(** How tight a cell's bound is, beyond the binary [exact] flag. The key
    property of the anytime solver design is that every tag below the
    first still labels a {e valid} lower bound — weak duality holds at
    every dual iterate, so stopping early loosens the bound but never
    invalidates it. *)
type quality =
  | Exact  (** exact LP optimum (simplex or presolve) *)
  | Converged  (** PDHG met its relative-gap tolerance *)
  | Iter_budget  (** PDHG hit its iteration cap before converging *)
  | Time_budget  (** a wall-clock deadline stopped PDHG early *)

val quality_label : quality -> string

(** Machine-checkable witness attached to a cell. [Dual y] certifies a
    feasible cell's [lower_bound]: re-evaluating the dual bound at [y] on
    the (Ge-normalized, presolve-reduced) model reproduces it. [Farkas r]
    certifies an infeasible cell: [r] passes
    {!Lp.Certificate.check_farkas} on the Ge-normalized full model
    problem, proving no placement can meet the goal. {!certify} replays
    either check from scratch. *)
type certificate =
  | Dual of float array
  | Farkas of float array

type t = {
  class_name : string;
  feasible : bool;
      (** the class can meet the goal; when false all other fields are
          zero/None and [lower_bound] is [infinity] *)
  lower_bound : float;
      (** certified lower bound on any heuristic of the class (exact LP
          optimum under [Exact_simplex]) *)
  rounded : Rounding.Round.result option;
      (** feasible integral solution from the rounding algorithm *)
  gap : float option;
      (** (rounded cost - lower bound) / rounded cost, when both exist *)
  exact : bool;  (** lower bound is an exact LP optimum *)
  lp_iterations : int;  (** 0 for simplex *)
  vars : int;
  rows : int;
  max_feasible_qos : float;
      (** worst per-user achievable QoS for this class (1.0 if no QoS
          goal) *)
  solve_path : solve_path;
      (** which fallback-chain leg produced the bound; never affects the
          numbers, only records how they were obtained *)
  quality : quality;
      (** how the solve stopped; anything below [Exact]/[Converged] means
          the bound is valid but possibly loose *)
  rel_gap : float;
      (** solver's relative primal-dual gap estimate at stop (0 for exact
          solves, [infinity] when no finite bound was certified) *)
  certificate : certificate option;
      (** independent witness for the bound or the infeasibility; [None]
          only when no verifiable witness could be derived — except
          [Path_tree_dp] cells, whose witness is the deterministic DP
          itself (replayed by {!certify}) *)
}

val default_pdhg_options : Lp.Pdhg.options
(** PDHG options tuned for MC-PERF instances (more iterations, looser
    relative tolerance than the library default). *)

type route = Simplex | Pdhg of Lp.Pdhg.options

val route : solver -> vars:int -> rows:int -> route
(** The solver an LP of the given dimensions goes to: [Exact_simplex]
    always takes the dense simplex and [First_order o] always takes PDHG
    with [o]; [Auto] takes the simplex while both [vars] and [rows] are
    at most 260 and PDHG with {!default_pdhg_options} beyond. The cell
    chain decides on the dimensions before presolve, so the choice is
    stable across reductions; the phase-one LP of
    [Methodology.plan_deployment] and the scenario LP of {!Avail_bound}
    go through the same choice. *)

val compute :
  ?solver:solver ->
  ?placeable:bool array ->
  Mcperf.Spec.t ->
  Mcperf.Classes.t ->
  t
(** Raises [Invalid_argument] on malformed inputs and [Failure] when both
    PDHG attempts of the cell's LP are unhealthy (see {!solve_path});
    class infeasibility and solver truncation are reported in the result.
    [placeable] restricts replica-hosting nodes (Section 6.2 phase
    two). *)

val pp : Format.formatter -> t -> unit

val certify :
  ?placeable:bool array ->
  Mcperf.Spec.t ->
  Mcperf.Classes.t ->
  t ->
  (unit, string) result
(** Recheck a cell's certificate from scratch: rebuild the model from
    [(spec, class)] (the spec must carry the goal the cell was computed
    at, including its QoS fraction), replay the deterministic presolve,
    and re-evaluate the certificate arithmetic — no solver runs. [Ok ()]
    when a [Dual] witness reproduces [lower_bound] (tolerance
    [1e-6 * (1 + |bound|)]) or a [Farkas] witness passes
    {!Lp.Certificate.check_farkas}; [Error msg] otherwise, including when
    no certificate is attached. [Path_tree_dp] cells are the exception to
    the no-certificate failure: their witness is the DP itself, so
    {!certify} replays {!Tree_dp.of_spec} + {!Tree_dp.solve} and checks
    that the re-evaluated optimum reproduces the recorded bound. *)

(** {2 Parallel class x goal-point sweeps}

    The figure sweeps evaluate every heuristic class at every QoS point —
    an embarrassingly parallel grid. {!sweep_classes} runs one task per
    (class, point) cell through {!Util.Parallel}. Cells are solved
    independently (no cross-point warm starting), so a cell's result is a
    pure function of [(spec, class, point)] and the sweep output is
    byte-identical at every [jobs] value. *)

type sweep = {
  per_class : (string * (float * t) list) list;
      (** one series per input class, fractions in input order *)
  wall_s : float list list;
      (** each cell's wall-clock inside its worker, shaped like
          [per_class] (a resumed cell keeps its journaled one) *)
  elapsed_s : float;  (** whole-sweep wall-clock in the parent *)
  pool : Util.Parallel.pool_stats;
      (** supervision counters from the worker pool (all-zero when no
          recovery was needed) *)
  resumed : int;  (** cells restored from the checkpoint journal *)
}

val path_counts : t list -> (solve_path * int) list
(** How many of the cells each fallback-chain leg handled, over every
    tag in a fixed display order (zero entries included). *)

val quality_counts : t list -> (quality * int) list
(** How many of the cells stopped with each quality tag, over every tag
    in a fixed display order (zero entries included). A budget-free sweep
    reports every cell [Exact] or [Converged]. *)

(** Sweep configuration as one value; build it from
    {!Sweep_config.default} with record syntax:

    {[
      Pipeline.(
        sweep_classes
          { Sweep_config.default with jobs = 4; deadline_s = 30. }
          spec ~fractions classes)
    ]} *)
module Sweep_config : sig
  type t = {
    jobs : int;  (** worker processes; <= 1 means sequential *)
    solver : solver;
    placeable : bool array option;
        (** replica-hosting node restriction (Section 6.2 phase two) *)
    timeout_s : float option;
        (** per-cell hard deadline enforced by killing the worker *)
    deadline_s : float;  (** whole-sweep wall-clock budget; [infinity] = none *)
    cell_budget_s : float;  (** per-cell budget cap; [infinity] = none *)
    journal : string option;  (** checkpoint journal path *)
    progress : (completed:int -> total:int -> unit) option;
  }

  val default : t
  (** Sequential, [Auto] solver, unbudgeted, no journal — the old
      defaults, as one value. The sweep and its workers run under the
      ambient {!Obs.Config}, so install one first to trace a sweep. *)
end

val load_journal :
  fingerprint:string ->
  string ->
  (string * (t * float)) list * Util.Parse_error.t option
(** The checkpoint journal at the path: its completed cells in file
    order, keyed as the sweep keys them, and — when the scan stopped
    early — the first defect: an unreadable file ([line 0]), a missing
    header or a fingerprint mismatch ([line 1], no cells), or a corrupt
    record (its 1-based line; the cells before it are kept). A missing
    file is a fresh start: no cells and no defect. {!sweep_classes}
    resumes from the cells and logs the defect as a warning. *)

val sweep_classes :
  Sweep_config.t ->
  Mcperf.Spec.t ->
  fractions:float list ->
  (string * Mcperf.Classes.t) list ->
  sweep
(** [sweep_classes cfg spec ~fractions classes] computes {!compute} for
    every (class, fraction) cell, fanned out over [cfg.jobs] worker
    processes ({!Util.Parallel.default_jobs} is a good explicit choice).
    Requires a QoS-goal spec. The field names below refer to
    {!Sweep_config.t}.

    [timeout_s] is the per-cell deadline handed to the worker pool (a
    stalled cell's worker is killed and the cell retried).

    [deadline_s] is a wall-clock budget for the {e whole} sweep: a
    governor apportions what remains of it across the cells still
    outstanding (re-evaluated at every dispatch, so fast cells donate
    their slack) and each cell's share caps its first-order solver's
    deadline. Cells that run out of time stop at a checkpoint and keep
    their best certified-so-far bound — the sweep degrades to looser but
    still valid bounds, recorded per cell in [quality]/[rel_gap], instead
    of overrunning. The sweep finishes within roughly [deadline_s] plus
    one cell's checkpoint granularity. [cell_budget_s] caps any single
    cell's share independently of the global deadline. Omitting both
    (or passing non-positive/infinite values) reads no clocks in any
    solver and leaves the output byte-identical to previous releases at
    every [jobs] value; budgets also fold into the journal fingerprint,
    so degraded cells are never resumed into a differently-budgeted
    sweep.

    [journal] names a checkpoint file: every completed cell is appended
    (atomic tmp+rename rewrite) so an interrupted sweep re-run with the
    same arguments skips the recorded cells and — because each cell's
    result is a pure function of (spec, class, fraction) — produces
    output byte-identical to an uninterrupted run at any [jobs]. The
    journal's header carries a fingerprint of everything a cell depends
    on: the spec's system, demand and costs, the latency threshold, the
    solver, [placeable], the time budgets, the fractions, and the class
    labels and names. A journal whose fingerprint differs — another
    instance, scale or seed, say — is ignored with a warning, never
    resumed. The journal tolerates a torn tail from a crash mid-write and
    is deleted when the sweep completes. With {!Util.Faults}'
    [ckill_after = n] the parent exits (status 96) right after its
    [n]-th checkpoint, so a kill-and-resume can be driven
    deterministically.

    [progress] is invoked in the parent after each cell completes.

    When a {!Util.Faults} spec is installed, each cell passes through the
    crash/stall injection points (worker first attempts only) and cells
    selected by [diverge] get their first PDHG attempt poisoned with a
    NaN rhs — exercising, deterministically, the supervision and fallback
    machinery without changing any reported number. *)
