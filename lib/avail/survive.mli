(** Survivability: re-price a placement under a failure scenario.

    {!degrade} replays {!Mcperf.Costing}'s closest-replica routing with a
    down-mask over the nodes: replicas on failed nodes cannot serve,
    reads from failed client sites are unavailable, and the origin
    fallback disappears when the origin itself is down — any read with no
    surviving server in reach becomes {e unavailability mass}. The
    degraded cost keeps the placement's sunk cost (storage, creation,
    class padding, writes, node opening — failures do not refund capacity
    you provisioned) and adds the degraded service terms:

    - served-late reads pay the spec's latency penalty
      [gamma * (latency - tlat)], exactly as in nominal costing;
    - unavailable reads pay {!miss_penalty} each — a price at least as
      high as the worst possible late service, so growing the failure
      set can never make a placement cheaper (the monotonicity the
      QCheck property pins down).

    {!assess} aggregates over a sampled scenario set into the fragility
    metric: the expected degraded-cost blow-up over the nominal cost. *)

type degraded = {
  down_count : int;  (** failed nodes in the scenario *)
  served : float;  (** weighted reads served within the threshold *)
  late : float;  (** weighted reads served above the threshold *)
  unavailable : float;  (** weighted reads with no surviving server *)
  lateness_ms : float;  (** weighted ms above threshold over late reads *)
  violation : float;
      (** fraction of total weighted demand not served within the
          threshold (late + unavailable); 0 when there is no demand *)
  unavail_fraction : float;  (** unavailable / total weighted demand *)
  degraded_cost : float;  (** sunk cost + penalties, see above *)
  cost_ratio : float;  (** degraded cost relative to the nominal total *)
}

val miss_penalty : Mcperf.Spec.t -> float
(** Per weighted read price of an unavailable read:
    [max 1 (gamma * (max latency - tlat))] — never below the cost of the
    worst late service, and strictly positive even when the spec's
    latency penalty is zero. *)

val degrade :
  ?base:Mcperf.Costing.evaluation ->
  Mcperf.Permission.t ->
  Mcperf.Costing.placement ->
  down:bool array ->
  degraded
(** [degrade perm placement ~down] re-prices [placement] with the failed
    nodes masked out. [base] is the nominal evaluation (computed via
    {!Mcperf.Costing.evaluate} when omitted; pass it when assessing many
    scenarios of one placement). With an all-up mask the degraded cost
    equals the nominal total. *)

type assessment = {
  scenarios : int;
  base_cost : float;  (** nominal evaluation total *)
  expected_cost : float;  (** mean degraded cost over the scenario set *)
  mean_violation : float;
  worst_violation : float;
  mean_unavailable : float;  (** mean unavailable fraction *)
  worst_cost_ratio : float;
  fragility : float;
      (** expected degraded-cost blow-up: [expected_cost / base_cost - 1]
          (for a zero-cost placement, the expected cost itself); 0 means
          failures never hurt this placement *)
}

val assess :
  Mcperf.Permission.t ->
  Mcperf.Costing.placement ->
  scenarios:Scenario.t array ->
  assessment
(** Aggregate {!degrade} over a scenario set (uniform weights), one
    scenario after another in the calling process. Requires a non-empty
    scenario array. *)
