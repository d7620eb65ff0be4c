(** The tree scenario family: MC-PERF instances on tree topologies, built
    to sit inside {!Bounds.Tree_dp}'s proven-exact scope so every cell of
    a tree sweep carries a zero gap by construction.

    Three shapes: complete [fanout]-ary trees, uniform random-attachment
    trees (stars through paths), and CDN-like hierarchies with fast
    backbone tiers above slow edge tiers. The origin is always node 0
    (the tree root). Demand is single-interval with per-node object
    shares bounded away from zero, which keeps the DP's atomicity
    condition satisfied at every fraction in {!default_fractions};
    [restrict_sites] adds heterogeneous storage as permitted sets while
    preserving feasibility (only origin-covered nodes can lose hosting
    rights).

    Used by [experiments validate --family tree] (DP vs LP vs Lagrangian
    vs heuristics cross-checks), the tree figure, [bench tree] and the
    differential tests. *)

type shape =
  | Balanced of { fanout : int; depth : int }
  | Random of { nodes : int }
  | Cdn of { fanouts : int list }

type t = {
  name : string;  (** stable identifier: shape, seed, site restriction *)
  shape : shape;
  system : Topology.System.t;
  spec : Mcperf.Spec.t;  (** QoS goal at the construction fraction *)
  placeable : bool array option;
      (** permitted replica sites; [None] = everywhere *)
}

val default_fractions : float list
(** Sweep fractions at which the family's atomicity margin holds. *)

val make :
  ?seed:int ->
  ?objects:int ->
  ?tlat_ms:float ->
  ?fraction:float ->
  ?latency:Topology.Generate.latency_range ->
  ?restrict_sites:bool ->
  shape ->
  t
(** Deterministic in all arguments. [objects] defaults to 6 (minimum 3,
    needed for the atomicity margin); [restrict_sites] defaults to
    false. Requires a shape with at least two nodes. *)

val family : ?seed:int -> count:int -> unit -> t list
(** [count] instances cycling through the shapes, varying size, latency
    threshold and site restriction deterministically. Instance [i] uses
    seed [seed + i]. *)
