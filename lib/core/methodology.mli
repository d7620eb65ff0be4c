(** The paper's two decision workflows.

    {2 Heuristic selection (Section 6.1)}

    Infrastructure already exists; the designer needs a heuristic. The
    method: compute the general lower bound and the bound of every
    implementable class; choose a heuristic from the feasible class with
    the lowest bound; if that bound is close to the general one, no other
    heuristic can do significantly better.

    {2 Infrastructure deployment (Section 6.2)}

    No file servers exist yet. Phase one solves MC-PERF with a
    node-opening cost ζ in the objective; the rounded [open] variables
    say where to deploy. Phase two reassigns every site's users to their
    nearest open node and recomputes the class bounds with placement
    restricted to the open nodes (the conclusions can change — on GROUP,
    caching becomes competitive). *)

type ranked = {
  result : Bounds.Pipeline.t;
  deployable : string option;
      (** the repo's deployed implementation of this class, when one
          exists (Table 3 lookup): "greedy-global", "greedy-replica",
          "lru-caching", ... *)
}

type selection = {
  general_bound : float;
  ranking : ranked list;  (** feasible classes first, sorted by bound *)
  chosen : ranked option;  (** lowest-bound feasible non-general class *)
  near_general : bool;
      (** the chosen class's bound is within a factor 2 of the general
          bound — no class of heuristics can be significantly better *)
}

val deployable_of_class : string -> string option
(** Class name -> deployed heuristic name (None for the general/reactive
    pseudo-classes that exist only as bounds). *)

val select : Mcperf.Spec.t -> selection
(** [select spec] ranks the implementable classes of Table 3 —
    storage-constrained, replica-constrained-uniform, decentralized local
    routing, caching and cooperative caching — by lower bound, every
    bound on the [Auto] solver. *)

type deployment = {
  open_nodes : int list;  (** deployed sites, origin included *)
  assignment : int array;  (** every site -> its serving node *)
  placeable : bool array;  (** open-node mask, for phase-two calls *)
  phase1_bound : float;
      (** certified lower bound of the ζ-augmented MC-PERF solve *)
}

val plan_deployment : ?zeta:float -> Mcperf.Spec.t -> deployment option
(** Phase one, with the LP on the solver [Bounds.Pipeline.route] picks
    under [Auto]. [zeta] defaults to the paper's 10_000. Returns [None] when
    even opening every node cannot meet the goal. The open set is derived
    by rounding the LP's [open] variables greedily (largest fractional
    value first) until the goal is coverable. *)

val reassign_demand : Mcperf.Spec.t -> deployment -> Mcperf.Spec.t
(** Phase-two spec: every site's demand is redirected to its assigned open
    node (users of a closed site are served by the nearest deployed file
    server, as in the paper). Combine with [deployment.placeable] when
    computing bounds or running heuristics. *)
