(** Small dense-vector helpers shared by the LP solvers.

    These are deliberately plain [float array] functions — no abstraction —
    because the solvers live in tight loops and the arrays are reused as
    scratch space. *)

val dot : float array -> float array -> float
(** Inner product. Requires equal lengths. *)

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val axpby_into :
  float -> float array -> float -> float array -> float array -> unit
(** [axpby_into a x b y dst] writes [a*x + b*y] into [dst] in one pass.
    [dst] may alias [x] or [y]. *)

val norm_inf : float array -> float
(** Max absolute entry; [0.] for the empty vector. *)

val clamp : float -> lo:float -> hi:float -> float
(** Clamp a scalar into an interval. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** Absolute-plus-relative comparison used throughout the tests:
    [|a-b| <= eps * (1 + max |a| |b|)]. Default [eps = 1e-9]. *)

val sum : float array -> float
(** Sum of entries (Kahan-compensated). *)
