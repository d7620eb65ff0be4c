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

val store_placement : t -> float array -> float array array array
(** [store_placement m x] expands a solution vector into a dense
    [node][object] -> per-interval fractional store array (entries outside
    the support are 0). Convenience for the rounding algorithm. *)

val var_count : t -> int

val pp_stats : Format.formatter -> t -> unit
