(** Deterministic pseudo-random number generator.

    All randomized components of the library (topology generation, workload
    synthesis, property tests that need auxiliary noise) draw from this
    splittable generator rather than the global [Stdlib.Random] state, so
    that every experiment is reproducible from a single integer seed. The
    core is the splitmix64 sequence, which has a 64-bit state, passes
    BigCrush, and is trivially splittable. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use one split per logical component so that adding draws to one
    component does not perturb another. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy and the original then
    produce identical streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. Requires [x > 0.]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo < hi]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick_weighted : t -> weights:float array -> int
(** [pick_weighted t ~weights] returns index [i] with probability
    proportional to [weights.(i)]. Requires at least one strictly positive
    weight and no negative weights. *)
