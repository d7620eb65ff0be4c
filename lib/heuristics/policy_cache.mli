(** Cache replacement policies.

    All caching heuristics in the paper's caching {e class} share the same
    class properties (Table 3) and hence the same lower bound — the policy
    only decides how close a deployed cache gets to that bound. The
    classic policies are replayed by {!Event_cache}, so the gap can be
    measured (see the policy-ablation benchmark):

    - [Lru]: evict the least recently used object;
    - [Fifo]: evict the oldest-inserted object, ignoring recency;
    - [Lfu]: evict the least frequently used object (access counts since
      insertion; ties broken by order of insertion). *)

type kind = Lru | Fifo | Lfu

val kind_name : kind -> string
