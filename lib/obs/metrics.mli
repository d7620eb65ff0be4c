(** Counters and log-bucketed histograms.

    Instruments are registered by name in a process-global registry and
    are cheap to look up once and cache.  All recording calls are
    no-ops while {!Config.metering} is off.

    Worker processes accumulate into their own registry copy; {!drain}
    ships the accumulated values to the parent, whose {!absorb} merges
    them (counters and histogram buckets add).  Because the merge is
    commutative and the snapshot sorts by name, the merged snapshot does
    not depend on worker scheduling. *)

type counter
type histogram

val counter : string -> counter
(** Find-or-create.  Registering the same name twice returns the same
    instrument. *)

val histogram : string -> histogram

val incr : ?by:int -> counter -> unit

val observe : histogram -> float -> unit
(** Record a sample.  Buckets are logarithmic (powers of two from
    [1e-9] up), so latencies spanning nanoseconds to minutes land in
    distinct buckets; non-positive samples land in the underflow
    bucket. *)

val counter_value : counter -> int

val histogram_stats : histogram -> int * float * float * float
(** [(count, sum, min, max)]; min/max are [nan] when empty. *)

val histogram_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], bound-ascending. *)

type delta
(** Opaque registry snapshot shipped from worker to parent. *)

val drain : unit -> delta
(** Capture and zero this process's registry (worker side). *)

val absorb : delta -> unit
(** Merge a drained registry into this one (parent side). *)

val snapshot_json : unit -> string
(** The whole registry as one JSON object, instruments sorted by name:
    [{"counters":{...},"histograms":{...}}]. *)
