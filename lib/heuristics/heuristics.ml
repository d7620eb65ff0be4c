(** Entry module of the heuristics library.

    The strategy API is the front door: {!Strategy} defines the
    strategy record, its context and the workload it decides on;
    {!Registry} lists the built-in strategies; {!Cache_strategy} builds
    the event-level (caching) strategies. The per-heuristic modules
    below expose their {!Strategy.factory} instances (the greedy ones
    their placement rules too); a deployment goes through a factory,
    never through a per-module entry point.
    {!Placement_baselines} only prices Qiu et al.'s fixed-replica
    baselines for the baselines comparison. *)

module Strategy = Strategy
module Registry = Registry
module Cache_strategy = Cache_strategy

(* Heuristic implementations (placement rules + [strategy] factories). *)
module Greedy_global = Greedy_global
module Greedy_replica = Greedy_replica
module Proportional = Proportional
module Event_cache = Event_cache
module Policy_cache = Policy_cache
module Placement_baselines = Placement_baselines
