(** The evaluation figures (Figures 1–3 of Section 6 and the tree figure)
    as one typed result, and the one function that computes them.

    A figure sweeps QoS goals. Its columns are class lower bounds (one
    {!Bounds.Pipeline.sweep_classes} batch) and deployed heuristics' costs
    (one {!Util.Parallel.map} batch per heuristic). A {!decl} says which;
    {!run} computes a {!t} that keeps every cell whole — its class, its
    full {!Bounds.Pipeline.t} and its wall-clock — so everything printed
    about a figure reads it and nothing is recomputed. *)

type decl = {
  name : string;  (** the CSV is [<name>.csv] *)
  sweep_name : string;  (** the bound sweep's journal is [<sweep_name>.journal] *)
  title : string;
  timing_title : string;
  spec : Mcperf.Spec.t;  (** the bounds' spec, at any fraction of its QoS goal *)
  placeable : bool array option;  (** the bounds' replica-site restriction *)
  points : float list;  (** the QoS goals, one row each *)
  classes : (string * Mcperf.Classes.t) list;  (** the bound columns *)
  heuristics : (string * (float -> Sim.Runner.deployed option)) list;
      (** the deployed columns, after the bound ones: each heuristic's
          minimal goal-meeting deployment at a goal *)
}

val fig1 : Case_study.t -> points:float list -> decl
(** The general bound and five implementable classes' bounds. *)

val fig2 : Case_study.t -> points:float list -> decl
(** The class the selection methodology picks for the workload
    (storage-constrained on WEB, replica-constrained on GROUP), its
    heuristic deployed, then LRU caching deployed. *)

val fig3 :
  zeta:float ->
  Case_study.t ->
  points:float list ->
  (Methodology.deployment * decl) option
(** The two-phase deployment scenario (Section 6.2). Phase one plans
    which nodes to open at node-opening cost [zeta] and QoS 0.95, a goal
    the reactive classes can reach at all; [None] when no deployment
    meets it. The figure is phase two: bounds with every site's users
    reassigned to the open nodes and placement restricted to them, and
    greedy global placement (WEB) or LRU caching (GROUP) deployed on the
    same system. *)

val figtree : seed:int -> decl
(** On a random 24-node tree: the exact DP optimum (general class), the
    caching class's bound and the proportional heuristic deployed. *)

val at_fraction : Mcperf.Spec.t -> float -> Mcperf.Spec.t
(** The spec with its QoS goal at another fraction. Raises
    [Invalid_argument] on an average-latency goal. *)

type 'a cell = {
  fraction : float;
  value : 'a;
  wall_s : float;  (** inside its worker *)
}

type sweep = {
  elapsed_s : float;  (** the whole batch, in the parent *)
  pool : Util.Parallel.pool_stats;
  resumed : int;  (** cells restored from the checkpoint journal *)
}

type bound = {
  label : string;
  cls : Mcperf.Classes.t;
  cells : Bounds.Pipeline.t cell list;  (** one per point *)
}

type deployed = {
  heuristic : string;
  outcomes : Sim.Runner.deployed option cell list;
      (** one per point; [None] where no parameter meets the goal *)
  deploy_sweep : sweep;
}

type t = {
  decl : decl;
  bounds : bound list;  (** one per declared class *)
  bound_sweep : sweep;
  deployed : deployed list;  (** one per declared heuristic *)
}

(** Progress of {!run}, so a caller can print each batch's lines as soon
    as it finishes. *)
type event =
  | Bounds_done of t  (** the bound sweep is done; [deployed] is empty *)
  | Deploying of string  (** a heuristic's column is about to run *)
  | Deployed_done of deployed

val run :
  ?journal_dir:string ->
  ?deadline_s:float ->
  ?cell_budget_s:float ->
  ?timeout_s:float ->
  ?on_event:(event -> unit) ->
  jobs:int ->
  decl ->
  t
(** The bound sweep, then each heuristic's column, in that order, each
    fanned out over [jobs] workers; the result is the same at every
    [jobs] apart from clocks. [journal_dir] (created if missing)
    checkpoints the bound sweep so an interrupted run resumes.
    [deadline_s], [cell_budget_s] and [timeout_s] are the bound sweep's
    {!Bounds.Pipeline.Sweep_config} fields, unset by default;
    [cell_budget_s] also caps each deployed point's search, which then
    returns its best goal-meeting parameter so far. *)
