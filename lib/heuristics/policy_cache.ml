type kind = Lru | Fifo | Lfu

let kind_name = function Lru -> "lru" | Fifo -> "fifo" | Lfu -> "lfu"
