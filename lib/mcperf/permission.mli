(** Placement-permission analysis for a (spec, heuristic class) pair.

    The knowledge, history and reactivity properties (constraints (20),
    (20a), (21) of the paper) all reduce to a statement of the form "object
    [k] may be {e created} on node [m] at interval [i] only if some node in
    [m]'s sphere of knowledge accessed [k] within the history window".
    Because executions have at most 62 intervals, the permitted intervals
    for each (node, object) pair are precomputed as integer bitmasks; the
    model builder and the simulator's oracle heuristics both consume them.

    The same analysis yields two byproducts:
    - {e store support}: intervals where storing can possibly help (a
      create was permitted at or before [i], and a read that this node can
      cover happens at or after [i]) — used to prune LP variables, which is
      safe by dominance (any optimal solution can be rewritten to one that
      stores only inside the support, at equal or lower cost);
    - the {e feasibility oracle}: the maximum QoS any heuristic of the
      class can reach, which detects unreachable goals without solving an
      LP (e.g. Figure 1: local caching cannot exceed 99% on WEB). *)

type t = private {
  spec : Spec.t;
  cls : Classes.t;
  placeable : bool array;
      (** nodes allowed to host replicas (always false for the origin) *)
  reach : bool array array;
      (** [reach.(n).(m)]: a replica at [m] serves node [n] within the
          latency threshold AND [n] is allowed to route to [m]. *)
  know : bool array array;  (** sphere of knowledge *)
  origin_covered : bool array;
      (** per node: the origin itself is within reach (those reads are
          always served in time, at zero placement cost) *)
  create_mask : int array array;
      (** [create_mask.(m).(k)]: bit [i] set iff creating [k] on [m] at
          interval [i] is permitted. Always all-zero for the origin (it
          permanently stores everything; placing there is pointless). *)
  store_mask : int array array;
      (** [store_mask.(m).(k)]: bit [i] set iff storing can help. *)
}

val compute : ?placeable:bool array -> Spec.t -> Classes.t -> t
(** [placeable] restricts the nodes that may host replicas (deployment
    scenario of Section 6.2: only opened sites have file servers); nodes
    outside it get empty create/store masks. Defaults to every node. The
    origin is never placeable regardless.

    Cost: the N x N reach and knowledge matrices, the two N x K mask
    matrices it returns (the only N x K allocations), and per object its
    read cells times the nodes each can reach. A (node, object) pair no
    read of the object can reach keeps all-zero masks and is never
    visited. Under [Know_custom] knowledge the sphere masks are instead
    built densely, in O(N^2 * K).

    Raises [Invalid_argument] when [placeable] has the wrong length, and
    under a [Window w] history with [w < 1] when there is an object and a
    placeable node. *)

val with_fraction : t -> float -> t
(** [with_fraction t f] re-targets a QoS analysis at fraction [f] without
    recomputing anything: the reach matrix depends only on the latency
    threshold and the masks never read the fraction, so the result equals
    [compute] at the new goal (the matrices are shared, not rebuilt).
    Raises [Invalid_argument] on an average-latency analysis. *)

val covering : t -> int array array
(** [covering t] lists per node [n], ascending, the nodes [m] with
    [reach.(n).(m)]: the only nodes whose masks a read at [n] can set. *)

val create_allowed : t -> node:int -> interval:int -> object_id:int -> bool
val store_possible : t -> node:int -> interval:int -> object_id:int -> bool

val max_feasible_qos : t -> float array
(** Per node: the largest fraction of its (weighted) reads that any
    heuristic of the class could serve within the threshold. *)

val feasible : t -> bool
(** Whether the spec's goal is achievable by the class at all. For a QoS
    goal this compares {!max_feasible_qos} against the target per user.
    For an average-latency goal it evaluates the per-user average latency
    of the maximal placement (replicate everywhere permitted). *)

val interval_bits : int -> int
(** [interval_bits i] is the mask with bits [0..i-1] set. (Exposed for the
    tests.) *)
