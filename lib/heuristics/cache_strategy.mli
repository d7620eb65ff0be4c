(** The event-level caching heuristics as strategy factories.

    The state is the cumulative event trace (caching decides on every
    access, so it consumes the event-level view, not the bucketed
    demand); [assess] replays the {!Event_cache} simulator at the
    context's capacity parameter (per-node cache capacity, in
    objects). *)

val lru : Strategy.factory
(** Plain per-node LRU ({!Lru_cache}) — [policy Lru]; class: reactive
    caching. *)

val policy : Policy_cache.kind -> Strategy.factory
(** Replacement-policy variants ({!Policy_cache}): lru/fifo/lfu. *)

val cooperative : Strategy.factory
val prefetching : Strategy.factory
val cooperative_prefetching : Strategy.factory

val hierarchical : Strategy.factory
(** Hierarchical cooperative caching (Korupolu et al. style): clusters of
    150 ms radius share one logical cache. *)

val meets : Mcperf.Spec.goal -> Event_cache.outcome -> bool
(** Whether the outcome meets the goal (QoS fraction at every node, or
    the average-latency cap) — the runner's feasibility test. *)
