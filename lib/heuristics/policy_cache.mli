(** Replacement-policy-parameterized caches.

    All caching heuristics in the paper's caching {e class} share the same
    class properties (Table 3) and hence the same lower bound — the policy
    only decides how close a deployed cache gets to that bound. This
    module provides the classic policies so the gap can be measured
    (see the policy-ablation benchmark):

    - [Lru]: evict the least recently used object (delegates to
      {!Lru_cache});
    - [Fifo]: evict the oldest-inserted object, ignoring recency;
    - [Lfu]: evict the least frequently used object (access counts since
      insertion; ties broken by recency of insertion). *)

type kind = Lru | Fifo | Lfu

val kind_name : kind -> string

type t

val create : kind -> capacity:int -> t
val size : t -> int

val mem : t -> int -> bool
(** Pure lookup; never changes eviction state. *)

val touch : t -> int -> bool
(** Record an access; returns whether it was a hit. *)

val insert : t -> int -> int option
(** Insert after a miss; returns the evicted object, if any. Inserting a
    present object behaves like {!touch} and returns [None]. Capacity 0
    returns [Some k]. *)

val contents : t -> int list
(** Cached objects, in an unspecified order. *)
