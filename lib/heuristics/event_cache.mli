(** Event-level simulation of caching heuristics.

    This is the "deployed heuristic" side of Figure 2: caching runs at its
    natural evaluation interval — every single access — rather than the
    coarse interval used for the lower bounds. Three variants:

    - {b local} ([Local], [prefetch = false]): plain per-node LRU; misses
      go to the origin.
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
    storage-constrained heuristic), creation is β per cache fill. The
    occupancy-based storage cost is also reported for reference. *)

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

(** What a write does to existing cached copies:
    - [Update]: every copy is refreshed in place (one message per copy —
      the paper's update-cost term (12));
    - [Invalidate]: copies are dropped (one invalidation message per
      copy); subsequent reads miss and re-fetch, trading message size for
      extra replica creations. *)
type write_policy = Update | Invalidate

type snapshots
(** End-of-interval cache-content snapshots, bit-packed per
    (node, object, interval). Unlike the MC-PERF placement word this
    representation is bounded by memory, not by the native int width, so
    long traces (any interval count) still record their placements. *)

val held : snapshots -> node:int -> object_id:int -> interval:int -> bool
(** Whether the node held the object when the interval closed. Raises
    [Invalid_argument] on out-of-bounds indices. *)

type outcome = {
  capacity : int;
  hits_local : int;
  hits_remote : int;  (** served by a peer cache (cooperative only) *)
  misses : int;  (** served by the origin *)
  insertions : int;  (** cache fills = replica creations *)
  qos : float array;  (** per node: fraction of reads served within tlat *)
  avg_latency : float array;  (** per node, ms *)
  provisioned_cost : float;
  occupancy_cost : float;
  write_messages : float;  (** update messages sent to caches (delta > 0) *)
  placement : Mcperf.Costing.placement option;
      (** end-of-interval cache contents as MC-PERF placement bitmasks
          ([placement.(n).(k)] bit [i]: node [n] held object [k] when
          interval [i] closed) — what the availability layer re-prices
          under failure scenarios. [Some] iff the run used at most 62
          intervals (the costing layer packs interval sets into a native
          int); longer traces only have the wide {!snapshots} view. *)
  snapshots : snapshots;
      (** the same end-of-interval contents, wide bit-packed — present at
          every interval count; query with {!held} *)
}

val simulate :
  system:Topology.System.t ->
  trace:Workload.Trace.t ->
  intervals:int ->
  costs:Mcperf.Spec.costs ->
  tlat_ms:float ->
  capacity:int ->
  mode:mode ->
  ?prefetch:bool ->
  ?placeable:bool array ->
  ?policy:Policy_cache.kind ->
  ?write_policy:write_policy ->
  unit ->
  outcome
(** Requires at most 62 nodes (the cooperative directory uses bitmask
    holder sets), a positive interval count and [capacity >= 0] — raises
    [Invalid_argument] otherwise. Any positive interval count is
    supported: snapshots are wide bit-packed, and the int-bitmask
    [placement] view is additionally produced when the count is at most
    62. [placeable] limits which sites run a
    cache (deployment scenario); non-placeable sites forward every access
    and pay no provisioned storage. [policy] selects the replacement
    policy (default [Lru]); all policies belong to the same heuristic
    class and are bounded by the same caching lower bound. *)

val meets_qos : outcome -> fraction:float -> bool
(** Every node's QoS is at least [fraction]. *)
