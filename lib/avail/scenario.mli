(** Seeded, deterministic correlated-failure scenarios.

    A scenario is a set of simultaneously-down nodes, sampled from the
    system's failure groups ({!Groups}) plus independent per-node rates.
    Every decision is an FNV-keyed coin flip in the {!Util.Faults}
    discipline: a pure function of (seed, kind, key), never of
    scheduling, worker identity or [--jobs] — so a scenario set is
    byte-identical in every process and at every parallelism level, and
    a seed reproduces it exactly.

    Two sampling products:

    - {!sample_all}: [count] independent snapshot scenarios, for
      expectation-style survivability assessment and the scenario LP;
    - {!timeline}: a step-indexed outage schedule with repair intervals
      (an outage that starts at step [t] lasts a hash-derived number of
      steps), for the degradation-replay mode of [Sim.Runner]. *)

type spec = {
  seed : int;
  count : int;  (** scenarios drawn by {!sample_all} *)
  group_prob : float;  (** per-scenario probability that a group is down *)
  node_prob : float;  (** independent per-node failure probability *)
  origin_fails : bool;
      (** when false the origin is always up and unavailability can only
          come from client-site loss; when true the origin participates
          in the per-node rate and its loss turns uncovered demand into
          unavailability mass *)
  steps : int;  (** timeline length for {!timeline} *)
  repair_steps : int;  (** maximum outage duration, in steps (>= 1) *)
}

val default : spec
(** [seed 7], 32 scenarios, group probability 0.08, node probability
    0.02, origin failable, 48 steps, repairs within 4 steps. *)

type t = {
  index : int;  (** scenario number within its spec, [0 <= index] *)
  down : bool array;  (** per-node failure flags *)
}

val down_count : t -> int
val is_down : t -> int -> bool

val signature : t -> string
(** Compact hex rendering of the down set (node-id bitmask, low node
    first), stable across processes — used by validate output and golden
    tests. *)

val sample_all : spec -> Topology.System.t -> groups:Groups.t array -> t array
(** Scenarios [0 .. count-1]; scenario [i] draws its group coins keyed
    ["<group>#<i>"] and its node coins keyed ["n<node>#<i>"], so it is
    pure in (spec, system, groups, i). Scenarios are weighted uniformly
    ([1/count]) by every consumer. *)

type timeline = {
  steps : int;
  down : bool array array;  (** [down.(t).(n)]: node [n] is down at step [t] *)
}

val timeline : spec -> Topology.System.t -> groups:Groups.t array -> timeline
(** Outage schedule over [spec.steps] steps: at each step each group
    (and each node) may begin an outage with its spec probability; the
    outage persists for [1 + hash mod repair_steps] steps (the repair
    interval), overlapping outages union. Deterministic in (spec,
    system, groups). *)

val render_timeline : timeline -> string
(** One line per step, ["step NN: down=[i,j,...]"] (or [-] when all up) —
    the golden-fixture text format. *)
