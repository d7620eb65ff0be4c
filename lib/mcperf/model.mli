(** MC-PERF model assembly: from a (spec, class) permission analysis to a
    concrete {!Lp.Problem}.

    The LP relaxation implements the paper's formulation:

    - cost function (1) with extensions (11) write cost, (12) penalty,
      (13) node-opening cost;
    - QoS constraint (2) per user, or average-latency constraints (7)–(10)
      with explicit route variables;
    - replica dynamics (3)–(6): [create >= store_i - store_(i-1)],
      coverage [covered <= sum of reachable stores], empty initial
      placement (4);
    - heuristic-property constraints: storage constraint (16)/(16a) and
      replica constraint (17)/(17a) via auxiliary capacity variables whose
      objective charge equals the equality-constrained storage cost;
      routing knowledge (18)/(19) folded into the reach matrix; knowledge,
      history and reactivity (20)/(20a)/(21) folded into per-variable
      create permissions (see {!Permission}).

    Variable-support pruning (safe by dominance): store/create variables
    exist only inside {!Permission.store_mask}; covered variables only
    where there is demand not already served by the origin. The origin
    node receives no variables — it permanently stores every object and
    its coverage enters the constraints as constants.

    Every variable gets finite box bounds so that {!Lp.Certificate} bounds
    are always finite. *)

type var_kind =
  | Store of { node : int; interval : int; object_id : int }
  | Create of { node : int; interval : int; object_id : int }
  | Covered of { node : int; interval : int; object_id : int }
  | Route of { node : int; from_node : int; interval : int; object_id : int }
  | Capacity of { node : int option }  (** [None] = uniform across nodes *)
  | Replicas of { object_id : int option }  (** [None] = uniform *)
  | Open_node of { node : int }

type t = private {
  permission : Permission.t;
  problem : Lp.Problem.t;
  kinds : var_kind array;
  objective_offset : float;
      (** constant term (from the penalty extension); the true cost of a
          solution [x] is [objective_value problem x + objective_offset] *)
  node_totals : float array;  (** weighted reads per node *)
  always_covered : float array;
      (** per node: weighted reads served by the origin within the
          threshold (no placement needed) *)
}

val build : Permission.t -> t
(** The class LP: {!add_stores} over every object (alpha on the store
    variables unless a storage or replica constraint carries it, the
    update term always), {!add_coverage} priced at the penalty and
    {!add_qos_rows} under a QoS goal, or the route rows (7)–(10) under an
    average-latency goal, then the class couplings: storage (16)/(16a),
    replicas (17)/(17a) and node opening (13)/(14). *)

val store_placement : t -> float array -> float array array array
(** [store_placement m x] expands a solution vector into a dense
    [node][object] -> per-interval fractional store array (entries outside
    the support are 0). Convenience for the rounding algorithm. *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Blocks}

    Every bound is an LP relaxation of the same program, so its core is
    built once, here: {!build}'s class LP, the availability scenario LP
    ([Bounds.Avail_bound]) and the Lagrangian's per-object subproblems
    ([Bounds.Lagrangian]) all start from {!add_stores} and
    {!add_coverage}. The relaxations differ only in the arguments:

    - the scenario LP keeps alpha and the update term on the store
      variables (it keeps no class coupling), prices coverage at 0
      (its scenario terms replace the penalty) and adds the QoS rows;
    - a Lagrangian subproblem covers one object, keeps alpha on the store
      variables unless its per-object replica row carries it, drops the
      update term and the QoS rows, and rewrites the coverage prices for
      each multiplier vector. *)

type stores
(** The store and create variables of one object set. *)

val add_stores :
  Lp.Problem.Builder.t ->
  Permission.t ->
  objects:int list ->
  alpha:bool ->
  delta:bool ->
  stores
(** For every non-origin node, object of [objects] (in the given order)
    and interval of {!Permission.store_mask}: a store variable priced
    [alpha * w] when [alpha] plus the update term [delta * w * writes]
    (12) when [delta], a create variable priced [beta * w] where
    {!Permission.create_allowed}, and the continuity row (3)+(20)
    [store_i - store_(i-1) - create_i <= 0] over the terms that exist. *)

val store_var :
  stores -> node:int -> interval:int -> object_id:int -> int option
(** The store variable of a (node, interval, object), if it exists. *)

val created : stores -> (int * var_kind) list
(** Every variable {!add_stores} added, as (index, [Store] or [Create]),
    in creation order. *)

type covered = {
  var : int;
  node : int;  (** the reading node *)
  interval : int;
  object_id : int;
  reads : float;  (** weighted reads of the cell *)
}

val add_coverage :
  Lp.Problem.Builder.t ->
  Permission.t ->
  stores ->
  penalty:bool ->
  covered list * float
(** For every read cell of the stores' objects whose node the origin does
    not cover: a covered variable with its cover row [covered - sum of
    reachable stores <= 0], when some store can cover it. With [penalty]
    the variable is priced [-reads * gamma * late], where [late] is how
    far the origin's latency exceeds the threshold, and the returned
    offset sums [reads * gamma * late] over every such cell, covered or
    not (term (11)); without it the price and the offset are 0. Covered
    cells come in creation order. *)

val always_covered : Permission.t -> float array
(** Per node: weighted reads the origin serves within the threshold, over
    every object. All zero under an average-latency goal. *)

val add_qos_rows :
  Lp.Problem.Builder.t ->
  fraction:float ->
  node_totals:float array ->
  always_covered:float array ->
  covered list ->
  unit
(** Constraint (2), one row per node:
    [sum reads * covered >= fraction * node_totals - always_covered],
    emitted whenever the node has covered cells or a positive
    requirement. *)
