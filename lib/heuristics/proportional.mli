(** Proportional placement: a cheap tree-aware heuristic that splits a
    global replica budget across objects in proportion to their weighted
    read share, then spends each object's quota on the sites whose
    subtrees generate the most demand for it.

    This is the "obvious" CDN rule of thumb — popular objects get more
    replicas, replicas sit above the heaviest demand — and the natural
    comparison point for the exact tree DP ({!Bounds.Tree_dp}): on tree
    instances the validate harness reports its cost alongside the DP
    optimum and the LP/Lagrangian bounds, quantifying how much the rule
    of thumb leaves on the table. On a tree the site score is the full
    weighted demand of the subtree hanging below the site (computed from
    the origin outward); on general graphs it degrades to the site's own
    local demand, i.e. the hotspot score of {!Placement_baselines}.

    Placements store for the whole horizon and are restricted to sites
    with store support, so the heuristic respects its class's
    permissions. *)

val strategy : Strategy.factory
(** The heuristic as a strategy factory, placed and priced under the
    unconstrained general class: parameter = total replica
    budget. The offline runner bisects budgets from zero (the empty
    placement wins when the origin already covers everything) up to
    every permitted site of every demanded object (beyond that budget
    the placement cannot change). The split is not strictly nested, so
    the budget found is a heuristic search, not a proof of minimality. *)
