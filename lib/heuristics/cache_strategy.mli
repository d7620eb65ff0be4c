(** The event-level caching heuristics as strategy factories.

    Caching decides on every access, so these strategies read the
    workload's cumulative event trace, not the bucketed demand, and
    raise [Invalid_argument] on a workload without one. [prepare] builds
    one {!Event_cache.plan} of the trace; [assess] replays it at a
    per-node cache capacity (objects), and the search ceiling is the
    trace's object count. *)

val lru : Strategy.factory
(** Plain per-node LRU — [policy Lru]; class: reactive caching. *)

val policy : Policy_cache.kind -> Strategy.factory
(** Replacement-policy variants ({!Policy_cache}): lru/fifo/lfu. *)

val cooperative : Strategy.factory
val prefetching : Strategy.factory
val cooperative_prefetching : Strategy.factory

val hierarchical : Strategy.factory
(** Hierarchical cooperative caching (Korupolu et al. style): clusters of
    150 ms radius share one logical cache. *)
