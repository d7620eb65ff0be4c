(** Correlated-failure groups derived from topology structure.

    Wide-area failures are rarely independent: a rack loses power, a
    region loses its uplink, an access tree loses its root. The
    availability model therefore samples {e group} failures — sets of
    nodes that go down together — and the groups come from the system's
    own structure, not from user configuration:

    - {b subtree} groups: the BFS tree rooted at the origin assigns every
      node a parent; each internal non-origin node together with all its
      descendants forms a group (losing a distribution node strands the
      whole subtree behind it). Depth-1 subtrees double as the "region"
      partition of the network.
    - {b star} groups: a hub together with its degree-1 neighbours (the
      leaf nodes that have no other link) — the rack/access-switch
      failure mode motivating group-structured placement models.

    Groups never contain the origin (its loss is modelled separately by
    the scenario sampler's per-node rates), are deduplicated by member
    set, and are listed in a deterministic order — the derivation is a
    pure function of the graph, so every process agrees on group names
    and membership. *)

type t = {
  name : string;  (** stable identifier, e.g. ["subtree-4"], ["star-2"] *)
  members : int array;  (** node ids, sorted ascending, never the origin *)
}

val derive : Topology.System.t -> t array
(** All failure groups of the system, deterministic in the graph. Each
    group has at least two members; singleton failures are covered by the
    sampler's independent per-node rates. May be empty (e.g. a 2-node
    system). *)
