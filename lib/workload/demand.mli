(** Interval-bucketed demand: the [read]/[write] counts of the MC-PERF
    model (Table 1 of the paper).

    Demand maps each (node, interval, object) triple to an access count.
    Counts are floats because object aggregation ({!Aggregate}) averages
    patterns across a class of similar objects; each object additionally
    carries a multiplicity [weight] (how many real objects the entry
    represents — 1 for raw demand). Storage is sparse per object, since
    heavy-tailed workloads touch most objects from few nodes and
    intervals. *)

type cell = { node : int; interval : int; count : float }

type t = private {
  nodes : int;
  intervals : int;
  objects : int;
  interval_s : float;  (** evaluation-interval length, seconds *)
  reads : cell array array;  (** per object, cells with positive count *)
  writes : cell array array;  (** per object, may be empty *)
  weight : float array;  (** per object multiplicity, >= 1 *)
}

val create :
  nodes:int ->
  intervals:int ->
  interval_s:float ->
  ?weight:float array ->
  ?writes:cell array array ->
  reads:cell array array ->
  unit ->
  t
(** Validates ranges, positive counts, and cell ordering requirements
    (cells of an object are sorted by (interval, node) and unique). *)

val of_trace : ?interval_s:float -> intervals:int -> Trace.t -> t
(** Bucket a trace into [intervals] equal evaluation intervals. When
    [interval_s] is given it is used as the bucket width instead of
    [duration /. intervals] (it must agree with the horizon to within
    1e-6 of a bucket) — chunked loads pass the globally computed width
    so their bucket arithmetic matches a whole-trace load exactly. *)

val extend : t -> Trace.t -> t
(** [extend t delta] appends a continuation chunk (absolute times, new
    longer horizon — see {!Trace.extend}) in O(delta) time: the chunk's
    events are bucketed with the same arithmetic [of_trace] would use on
    the concatenated trace and appended as new intervals past the
    existing ones. The object universe may grow (new objects get weight
    1). Raises if the chunk's horizon is not a whole number of new
    intervals or node counts differ. *)

val read_at : t -> node:int -> interval:int -> object_id:int -> float
(** Count lookup (0. when absent). O(log cells) per call. *)

val total_reads : t -> float
(** Weighted total read count. *)

val node_read_totals : t -> float array
(** Weighted read count per node (the QoS denominators of constraint (2)). *)

val object_total : t -> int -> float
(** Unweighted read count of one object across all nodes and intervals. *)

val remap_nodes : t -> mapping:int array -> t
(** Merge demand along a user-to-node assignment (deployment scenario). *)

val pp_summary : Format.formatter -> t -> unit
