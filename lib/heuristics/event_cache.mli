(** Event-level simulation of caching heuristics.

    This is the "deployed heuristic" side of Figure 2: caching runs at its
    natural evaluation interval — every single access — rather than the
    coarse interval used for the lower bounds. Three variants:

    - {b local} ([Local], [prefetch = false]): per-node caches; misses go
      to the origin.
    - {b cooperative} ([Cooperative]): a miss is served by the nearest
      node currently caching the object (directory lookup), falling back
      to the origin; the object is then cached locally.
    - {b prefetching} ([prefetch = true]): at each interval boundary every
      node pre-loads the objects it will access during the coming interval
      (most-demanded first, up to capacity) — an oracle stand-in for the
      proactive classes of Table 3.

    Cost accounting mirrors the paper's case study: storage is the
    {e provisioned} capacity on every non-origin site for the full
    execution (α · C · sites · intervals — caching is a uniform
    storage-constrained heuristic), creation is β per cache fill, and a
    write refreshes every cached copy in place at δ per copy.

    A simulation has two stages, so a search over the capacity pays for
    the work that does not depend on it once. {!plan} reads the workload
    once: each interval's event-index range (a binary search per interval
    boundary over the time-sorted trace, no copy of it), the peer order,
    the clusters and the prefetch lists. {!replay} then runs the trace at
    one capacity over flat node × object arrays: an intrusive list per
    node for LRU, a ring per node for FIFO, (frequency, insertion)
    counters for LFU, and one membership matrix that is also the
    cooperative directory. A replay costs O(events) for LRU and FIFO,
    plus a scan of the peer order per cooperative miss on an object
    some node holds, O(capacity) per LFU eviction and O(cached objects)
    per interval boundary; it allocates O(nodes × objects). A plan reads
    the trace in O(intervals × log events), or in one pass with
    prefetch; its peer order and clusters depend on the node count
    alone. There is no limit on the node count. *)

type mode =
  | Local
  | Cooperative
  | Hierarchical of { cluster_radius_ms : float }
      (** Korupolu–Plaxton–Rajaraman-style hierarchical cooperative
          caching: nodes are grouped into latency balls of the given
          radius; a miss served by a cache {e within the same cluster}
          does not duplicate the object locally (the cluster behaves like
          one shared cache), while objects fetched from outside the
          cluster or the origin are cached locally. Cuts intra-cluster
          redundancy at the price of intra-cluster fetches. *)

type outcome = {
  hits_local : int;
  hits_remote : int;  (** served by a peer cache (cooperative only) *)
  misses : int;  (** served by the origin *)
  insertions : int;  (** cache fills = replica creations *)
  qos : float array;  (** per node: fraction of reads served within tlat *)
  avg_latency : float array;  (** per node, ms *)
  provisioned_cost : float;
  write_messages : float;  (** update messages sent to caches (delta > 0) *)
  placement : Mcperf.Costing.placement;
      (** end-of-interval cache contents as MC-PERF placement bitmasks
          ([placement.(n).(k)] bit [i]: node [n] held object [k] when
          interval [i] closed) — what the availability layer re-prices
          under failure scenarios *)
}

type plan
(** Everything a replay needs that does not depend on the capacity. *)

val plan :
  system:Topology.System.t ->
  trace:Workload.Trace.t ->
  intervals:int ->
  costs:Mcperf.Spec.costs ->
  tlat_ms:float ->
  mode:mode ->
  ?prefetch:bool ->
  ?placeable:bool array ->
  ?policy:Policy_cache.kind ->
  unit ->
  plan
(** Requires between 1 and {!Mcperf.Spec.max_intervals} intervals (the
    placement packs an interval set into a native int, as the spec does),
    a trace of at most the system's nodes and a [placeable] of one entry
    per node — raises [Invalid_argument] otherwise. [placeable] limits which sites run a cache (deployment
    scenario); non-placeable sites forward every access and pay no
    provisioned storage. [policy] selects the replacement policy (default
    [Lru]); all policies belong to the same heuristic class and are
    bounded by the same caching lower bound. *)

val replay : plan -> capacity:int -> outcome
(** The simulation at per-node cache capacity [capacity] (objects).
    Raises [Invalid_argument] when [capacity < 0]. Replays of one plan
    are independent: each starts from empty caches. *)

val meets_qos : outcome -> fraction:float -> bool
(** Every node's QoS is at least [fraction]. *)
