let builtin : (string * Strategy.factory) list =
  [
    ("greedy-global", Greedy_global.strategy);
    ("greedy-replica", Greedy_replica.strategy);
    ("proportional", Proportional.strategy);
    ("lru-caching", Cache_strategy.lru);
    ("fifo-caching", Cache_strategy.policy Policy_cache.Fifo);
    ("lfu-caching", Cache_strategy.policy Policy_cache.Lfu);
    ("cooperative-caching", Cache_strategy.cooperative);
    ("caching-prefetch", Cache_strategy.prefetching);
    ("cooperative-caching-prefetch", Cache_strategy.cooperative_prefetching);
    ("hierarchical-caching", Cache_strategy.hierarchical);
  ]

let find name = List.assoc_opt name builtin
let names () = List.map fst builtin
