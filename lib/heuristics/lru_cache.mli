(** A classic O(1) LRU cache over integer object ids.

    Backing structure: hash table + intrusive doubly-linked recency list.
    Capacity is measured in objects (the paper's case study uses
    equal-sized objects). A capacity of 0 is legal and caches nothing. *)

type t

val create : capacity:int -> t
(** Requires [capacity >= 0]. *)

val size : t -> int

val mem : t -> int -> bool
(** Pure lookup; does not touch recency. *)

val touch : t -> int -> bool
(** [touch t k] returns whether [k] was cached, moving it to
    most-recently-used position if so. *)

val insert : t -> int -> int option
(** [insert t k] adds [k] (MRU position). Returns the evicted object, if
    the cache was full. Inserting a cached object just refreshes recency
    and returns [None]. With capacity 0, returns [Some k] immediately (the
    object cannot be retained). *)

val contents : t -> int list
(** Cached objects, most-recent first. O(size). *)
