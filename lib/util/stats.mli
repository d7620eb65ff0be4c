(** Descriptive statistics over float samples, for the benchmark
    harness's timing rounds. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]] returns the linearly
    interpolated p-th percentile. Sorts a copy; the input is untouched.
    Requires a non-empty array. *)
