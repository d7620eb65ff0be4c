(** Synthetic wide-area topologies.

    The paper's case study uses a 20-node AS-level topology derived from
    Telstra's network, with 100–200 ms per AS-level hop. That data set is
    not redistributable, so {!as_like} synthesizes a topology with the same
    observable characteristics: hub-and-spoke degree skew (preferential
    attachment), per-hop latencies uniform in a configurable range, and a
    well-connected "headquarters" candidate. Regular shapes (ring, star,
    grid, clique) are provided for tests and examples. *)

type latency_range = { lo_ms : float; hi_ms : float }

val default_hop_latency : latency_range
(** 100–200 ms, the paper's AS-level hop latency. *)

val as_like : rng:Util.Prng.t -> nodes:int -> latency:latency_range -> Graph.t
(** Preferential-attachment topology: nodes arrive one at a time and attach
    to an existing node with probability proportional to its degree, then
    [0.3 * nodes] (rounded) additional random edges are added to create the
    meshier core of real AS graphs. Always connected. Requires
    [nodes >= 1]. *)

val ring : rng:Util.Prng.t -> nodes:int -> latency:latency_range -> Graph.t
val star : rng:Util.Prng.t -> nodes:int -> latency:latency_range -> Graph.t
(** [star] has node 0 as the hub. *)

val grid : rng:Util.Prng.t -> width:int -> height:int -> latency:latency_range -> Graph.t
val clique : rng:Util.Prng.t -> nodes:int -> latency:latency_range -> Graph.t

val balanced_tree :
  rng:Util.Prng.t -> fanout:int -> depth:int -> latency:latency_range -> Graph.t
(** Complete [fanout]-ary tree of the given [depth] (depth 0 is the single
    root). Node 0 is the root; children have higher ids than their parents,
    so ids already order the tree top-down. Requires [fanout >= 1]. *)

val random_tree : rng:Util.Prng.t -> nodes:int -> latency:latency_range -> Graph.t
(** Uniform random-attachment tree: node [v] picks its parent uniformly
    among nodes [0 .. v-1]. Samples a broad shape mix (stars through
    paths), which is what the DP's differential tests want. *)

val cdn_hierarchy :
  rng:Util.Prng.t ->
  fanouts:int list ->
  tier_latency:latency_range list ->
  unit ->
  Graph.t
(** CDN-like hierarchy: the root (origin) feeds [List.nth fanouts 0]
    regional nodes over links drawn from the first latency range, each of
    those feeds the next tier, and so on — one fan-out and one latency
    range per tier, typically fast backbone links up high and slow edge
    links down low. *)

val headquarters : Graph.t -> int
(** The designated origin/data-center node: the node with the highest
    degree (ties to the lowest index). In the case study this node stores
    every object permanently. *)
