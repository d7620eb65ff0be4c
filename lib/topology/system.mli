(** A concrete wide-area system: topology, latency matrix and origin node.

    This is the "system" input of MC-PERF. The origin (headquarters in the
    paper's case study) permanently stores every object; all misses can be
    served from it, possibly above the latency threshold. *)

type t = private {
  graph : Graph.t;
  latency : float array array;  (** all-pairs shortest-path latency, ms *)
  origin : int;  (** node that stores all objects permanently *)
}

val make : ?origin:int -> Graph.t -> t
(** Builds the system view; [origin] defaults to {!Generate.headquarters}.
    Requires a connected graph so that every miss can reach the origin. *)

val node_count : t -> int

val within_threshold : t -> tlat:float -> bool array array
(** [within_threshold sys ~tlat] is the [dist] matrix of the paper:
    [m.(n).(u)] iff node [n] can access a replica on node [u] within
    [tlat] ms. The diagonal is always true. *)

(** Routing knowledge (the [fetch] matrix): which nodes a given node can
    fetch replicas from. *)
type routing =
  | Route_local  (** only itself and the origin, like plain caching *)
  | Route_global  (** any node, like cooperative caching or centralized *)

(** Placement knowledge (the [know] matrix): whose activity a node's
    placement decision may use. *)
type knowledge =
  | Know_local  (** only accesses initiated at the node itself *)
  | Know_global  (** accesses anywhere in the system *)
  | Know_custom of bool array array

val fetch_matrix : t -> routing -> bool array array
(** [fetch_matrix sys r] gives [f.(n).(u)] iff [n] may fetch from [u].
    [f.(n).(n)] and [f.(n).(origin)] are always true: a node can always
    read its own replica and fall back to the origin. *)

val know_matrix : t -> knowledge -> bool array array
(** [k.(n).(u)] iff activity at [u] may drive placement on [n]. The
    diagonal is always true. *)

val effective_reach :
  t -> tlat:float -> routing -> bool array array
(** Pointwise conjunction of {!within_threshold} and {!fetch_matrix}: node
    [n]'s demand is covered by a replica at [u] iff [u] is both reachable
    within the threshold and routable-to. This is the coverage matrix the
    model builder consumes. *)
