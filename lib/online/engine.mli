(** Epoch-driven online placement service.

    The engine consumes a workload as a stream of continuation chunks
    ({!Workload.Trace.sub} slices with absolute times, one per epoch),
    folds each chunk into an incremental cumulative state
    ({!Workload.Incremental} + {!Workload.Trace.extend}), and per epoch:

    + deploys every registered {!Heuristics.Strategy.factory} with
      {!Sim.Runner.deploy} on everything observed so far (the
      cumulative {!Heuristics.Strategy.workload}), so each decision is
      the offline deployment of that workload;
    + solves one class lower bound per distinct heuristic class with
      {!Bounds.Pipeline.compute} on the cumulative spec, from scratch —
      no solver state passes between epochs, so an epoch's bound is the
      offline bound of everything observed so far, and the final epoch
      reports the same bound at every epoch size;
    + reports decisions with per-epoch regret — deployed cost minus the
      class bound. The bound is certified valid (weak duality), so regret
      is nonnegative for every feasible decision.

    The service runs under the paper's case-study costs
    ({!Mcperf.Spec.default_costs}), with every node placeable and the
    [Auto] solver route.

    Determinism: the strategy searches and the bound solves run one
    after another in the calling process, so an epoch report is a pure
    function of the chunks fed so far and the configuration. Only the
    wall-clock fields ([search_s], [solve_s]) vary between runs. *)

type config = {
  system : Topology.System.t;
  interval_s : float;  (** evaluation-interval (bucket) width, seconds *)
  epoch_intervals : int;  (** intervals ingested per epoch *)
  goal : Mcperf.Spec.goal;
  strategies : (string * Heuristics.Strategy.factory) list;
}

val default_strategies : (string * Heuristics.Strategy.factory) list
(** One representative per major class: greedy-global, greedy-replica,
    proportional, lru-caching, cooperative-caching. *)

val default :
  system:Topology.System.t ->
  interval_s:float ->
  epoch_intervals:int ->
  goal:Mcperf.Spec.goal ->
  unit ->
  config
(** Config with {!default_strategies}. *)

type decision = {
  strategy : string;
  class_name : string;
  parameter : int option;  (** [None]: no parameter meets the goal *)
  cost : float option;  (** deployed (provisioned) cost at [parameter] *)
  worst_qos : float option;
  bound : float option;  (** class lower bound, when the class is feasible *)
  regret : float option;  (** [cost - bound]; [>= 0] whenever present *)
}

type epoch = {
  index : int;
  intervals : int;  (** cumulative intervals after this epoch's chunk *)
  chunk_events : int;
  total_events : int;
  working_set : int;  (** objects read within the last epoch's intervals *)
  bounds : (string * Bounds.Pipeline.t) list;  (** keyed by class name *)
  decisions : decision list;  (** one per configured strategy, in order *)
  search_s : float;  (** wall time of the strategy searches *)
  solve_s : float;  (** wall time of the bound re-solves *)
}

type t
(** A running engine: cumulative workload state and the epochs so far. *)

val create : config -> t

val feed : t -> Workload.Trace.t -> epoch
(** Ingest one continuation chunk and run the epoch. Epochs whose
    cumulative demand still has zero reads are warm-up epochs: reported
    with no bounds and no decisions. Raises on misaligned chunks (see
    {!Workload.Demand.extend}) and once the cumulative horizon exceeds
    the model's interval limit ({!Mcperf.Spec.make}). *)

val epochs : t -> epoch list
(** All epochs so far, oldest first. *)

val bound_solves : t -> int
(** Class bounds solved so far, over all epochs. *)

val chunks :
  interval_s:float ->
  epoch_intervals:int ->
  Workload.Trace.t ->
  Workload.Trace.t list
(** Slice a replay trace into per-epoch continuation chunks by bucket
    index, using the same arithmetic as {!Workload.Demand.of_trace} on
    the whole trace — so feeding the chunks reproduces the offline
    demand exactly, for any epoch size. The last chunk may cover fewer
    than [epoch_intervals] intervals. *)
