(** Descriptive statistics over float samples.

    Used by the simulator's latency metrics and by the benchmark harness
    when summarizing experiment series. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Single pass mean/variance (Welford). The empty array summarizes to
    all-zero fields with [count = 0]. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]] returns the linearly
    interpolated p-th percentile. Sorts a copy; the input is untouched.
    Requires a non-empty array. *)

val fraction_within : float array -> threshold:float -> float
(** Fraction of samples [<= threshold]; [1.] for the empty array (an empty
    demand trivially meets any latency goal). *)
