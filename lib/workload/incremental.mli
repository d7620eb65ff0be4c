(** Incremental workload state for the online engine.

    Folds a stream of continuation chunks (absolute-time {!Trace} slices,
    see {!Trace.extend}) into a growing {!Demand} via {!Demand.extend} —
    O(chunk) per fold instead of an O(total) [of_trace] rebuild — plus
    the two running statistics the online engine reports: the event
    count and a recency-window working-set size.

    Bucketing matches a whole-trace {!Demand.of_trace} exactly: the
    interval width is fixed at creation and every chunk's events carry
    absolute times, so any chunking of the same trace yields the same
    final demand, cell for cell. *)

type t

val create : nodes:int -> interval_s:float -> t
(** Empty state: no intervals yet, fixed bucket width. *)

val extend : t -> Trace.t -> t
(** Fold one continuation chunk. The first chunk establishes the initial
    intervals (its horizon must be a whole number of widths); later
    chunks go through {!Demand.extend}. The given state is left as it
    was: the last-read intervals behind {!working_set} are copied, in
    O(objects). *)

val demand : t -> Demand.t
(** Cumulative demand. Raises [Invalid_argument] before the first chunk. *)

val intervals : t -> int
(** Intervals ingested so far (0 before the first chunk). *)

val events : t -> int
(** Events (reads and writes) ingested so far. *)

val working_set : t -> window:int -> int
(** Objects whose last read falls within the trailing [window] intervals. *)
