(** Heuristic classes: combinations of the six heuristic properties of
    Table 2, including the catalogue of Table 3.

    Each property translates to extra constraints on MC-PERF; solving the
    constrained LP yields the lowest possible cost of any heuristic in the
    class (Section 4 of the paper). *)

(** Storage constraint (16)/(16a): the amount of storage used is fixed
    across intervals — uniform across nodes, or per-node. *)
type storage_constraint = Sc_none | Sc_uniform | Sc_per_node

(** Replica constraint (17)/(17a): the number of replicas of each object is
    fixed across intervals — one global factor, or per-object. *)
type replica_constraint = Rc_none | Rc_uniform | Rc_per_object

(** Activity history (20): how many past (or current) intervals of activity
    a heuristic may base placement on. [Window 1] with [Reactive] is plain
    caching; [All_intervals] keeps the full execution history. *)
type history = All_intervals | Window of int

(** Reactive heuristics (20a) may only place objects accessed strictly
    before the current interval; proactive ones may act on current-interval
    accesses (placement with knowledge of the interval's accesses, or
    prefetching). *)
type timing = Proactive | Reactive

type t = {
  name : string;
  storage : storage_constraint;
  replicas : replica_constraint;
  routing : Topology.System.routing;  (** the [fetch] matrix *)
  knowledge : Topology.System.knowledge;  (** the [know] matrix *)
  history : history;
  timing : timing;
  intra_interval : bool;
      (** Approximate per-access evaluation intervals (Theorem 3 of the
          paper's appendix) for reactive heuristics: when the sphere of
          knowledge sees two or more accesses to an object within one
          evaluation interval, a reactive heuristic evaluated at every
          access could already have reacted to the earlier one, so
          creation in that same interval is permitted. Without this, a
          coarse evaluation interval makes all interval-0 demand
          artificially uncacheable. Off by default (the paper's exact
          constraint (20a)); enable with {!allow_intra_interval_reaction}
          when bounding per-access heuristics such as LRU. *)
}

val general : t
(** No property constraints: solving MC-PERF with this class gives the
    general lower bound that applies to any placement algorithm. *)

val storage_constrained : t
(** Centralized storage-constrained heuristics (global routing and
    knowledge, full history): e.g. greedy global placement. Uniform
    capacity variant. *)

val storage_constrained_per_node : t
(** As {!storage_constrained} but each node may have its own fixed
    capacity (larger caches on strategic nodes). *)

val replica_constrained : t
(** Centralized replica-constrained heuristics (Qiu et al. style), with a
    per-object replication factor. *)

val replica_constrained_uniform : t
(** Same replication factor for every object. *)

val decentralized_local_routing : t
(** Decentralized storage-constrained heuristics with local routing: a
    node serves misses from the origin only, but placement uses full local
    history. *)

val caching : t
(** Plain local caching (e.g. LRU): storage-constrained, local routing,
    local knowledge, single-interval history, reactive. *)

val cooperative_caching : t
(** Cooperative caching: global routing/knowledge, single-interval
    history, reactive. *)

val caching_prefetch : t
(** Local caching with prefetching: as {!caching} but proactive. *)

val cooperative_caching_prefetch : t
(** Cooperative caching with prefetching: as {!cooperative_caching} but
    proactive. *)

val reactive_general : t
(** The general bound restricted to reactive placement only — the
    "Reactive bound" series of Figure 3. *)

val catalogue : t list
(** Table 3's classes (plus the general and reactive-general bounds), in
    presentation order. *)

val allow_intra_interval_reaction : t -> t
(** Enable the per-access reactive refinement (no effect on proactive
    classes). The name is suffixed with ["@access"]. *)
