(** Request traces: time-ordered sequences of object accesses.

    A trace is the event-level view of a workload; it drives the deployed
    heuristics (caching decides on every single access). The interval-level
    view consumed by the MC-PERF model is derived by {!Demand.of_trace}.
    Stored as a structure of arrays to keep multi-million-request traces
    compact. *)

type kind = Read | Write

type t

val length : t -> int
val duration_s : t -> float
(** The trace's nominal duration (its time horizon, not the last event
    time). *)

val node_count : t -> int
val object_count : t -> int

val time : t -> int -> float
val node : t -> int -> int
val object_id : t -> int -> int
val kind : t -> int -> kind

val iter : (time:float -> node:int -> object_id:int -> kind:kind -> unit) -> t -> unit
(** Iterate events in time order. *)

val of_events :
  nodes:int ->
  objects:int ->
  duration_s:float ->
  (float * int * int * kind) list ->
  t
(** Build from [(time, node, object, kind)] events; sorts by time.
    Validates that every event is within bounds and the horizon. *)

val create_unsafe :
  nodes:int ->
  objects:int ->
  duration_s:float ->
  times:float array ->
  event_nodes:int array ->
  event_objects:int array ->
  kinds:kind array ->
  t
(** Zero-copy constructor for generators that produce already-sorted
    struct-of-arrays data. Validates sortedness and bounds. *)

val sub : t -> lo:int -> hi:int -> duration_s:float -> t
(** Event index range [lo, hi) as a trace with the given horizon. Times
    are kept as-is (absolute), so a suffix slice is a continuation chunk
    in the sense of {!extend}, not a standalone trace starting at 0. *)

val extend : t -> t -> t
(** [extend t delta] appends a continuation chunk whose times are
    absolute (already past [t]'s events) and whose [duration_s] is the
    new, longer horizon. Node counts must match; the object universe may
    grow. Inverse of slicing a long trace into prefix + {!sub} suffix. *)

val write_count : t -> int

val remap_nodes : t -> mapping:int array -> t
(** [remap_nodes t ~mapping] redirects every event from node [n] to
    [mapping.(n)] — used when users of a closed site are assigned to a
    deployed node (deployment scenario of the paper, Section 6.2). The
    node count is unchanged. *)
