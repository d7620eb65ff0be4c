(** Mutable binary min-heap keyed by floats.

    Used by the shortest-path code and the greedy placement heuristics.
    Entries are [(priority, value)] pairs; duplicate values are allowed
    (stale entries are the caller's concern — the usual "lazy deletion"
    pattern of Dijkstra works fine). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap. [capacity] is just the initial backing-store size. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h p v] inserts value [v] with priority [p]. *)

val pop_min : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest priority, if any.
    Ties are broken arbitrarily. *)

val peek_min : 'a t -> (float * 'a) option
