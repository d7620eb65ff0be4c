(** Supervised process-level parallel map for the sweep layers.

    The methodology's sweeps (heuristic class x goal point for the
    bounds; goal points, or heuristics, for the deployments) are
    embarrassingly parallel but CPU-bound, so parallelism is
    process-level: [map] forks a pool of workers, streams task {e
    indices} to them over pipes (the task array itself is inherited
    through [fork], so only indices and results are [Marshal]-framed),
    and collects results {e in task order} regardless of completion
    order — callers observe exactly the sequential result list.

    The pool is supervised — a long sweep survives partial failure:

    - a worker that dies (segfault, [kill], [_exit]) is detected by EOF
      on its result pipe and reaped via [waitpid]; a replacement worker
      is forked into its slot (at most [max 4 (2 * slots)] respawns per
      map) and the in-flight task is re-dispatched with exponential
      backoff. After three worker attempts the task is computed inline
      in the parent, so every task still yields a result;
    - a task that raises in a worker is a {e structured} failure: the
      worker survives, every other task still runs to completion, and the
      failure is reported at the end — {!map} raises {!Task_failed} for
      the lowest failing index;
    - with [timeout_s] set, a task that exceeds it gets its worker killed
      and is retried on a fresh worker (transient stalls recover); when the
      attempt budget is spent, {!Task_timeout} is raised;
    - when [fork] fails repeatedly (bounded retries with backoff), the
      pool degrades gracefully: it runs narrower, and with no workers
      left the remaining tasks execute sequentially in the parent;
    - [Unix.select] and [waitpid] retry on [EINTR]; teardown polls with
      [WNOHANG] before escalating to [SIGKILL] and swallows [ECHILD], so
      no zombie workers survive the pool.

    {!last_pool_stats} reports the supervision counters of the most
    recent map on this process, so sweeps can surface how much recovery
    actually happened.

    Results must be marshallable (no closures, no custom blocks beyond
    the stdlib's); everything the sweep layers return — floats, arrays,
    records of those — qualifies.

    {b Observability.} When [Obs] is enabled, each task body runs under
    a per-task trace scope ([task:<phase>.<index>]) with fresh logical counters
    on every execution path, and workers ship their drained trace /
    metrics buffers back on the result pipe; the parent absorbs a
    buffer only for the attempt it accepts. Supervision events
    (dispatch, deaths, respawns, backoff, timeouts) are traced only in
    wall-clock mode because they depend on scheduling; in logical mode
    the merged trace is byte-identical at every [jobs]. With [Obs]
    disabled (the default) the only addition to the pipe protocol is an
    empty payload string per response. *)

type 'a result = {
  value : 'a;
  wall_s : float;  (** task wall-clock, measured inside the worker *)
}

exception Task_failed of { index : int; message : string }
(** Task [index] raised in a worker; [message] is the printed exception. *)

exception Task_timeout of { index : int; timeout_s : float }

type pool_stats = {
  worker_deaths : int;  (** workers that died while the pool was live *)
  respawns : int;  (** replacement workers forked *)
  task_retries : int;  (** in-flight tasks re-dispatched to a worker *)
  inline_recoveries : int;  (** tasks computed in the parent as last resort *)
  timeouts : int;  (** deadline expiries (the task may have recovered) *)
  fork_failures : int;  (** failed [fork]/[pipe] attempts *)
  degraded : bool;  (** the pool fell back to sequential execution *)
}

val last_pool_stats : unit -> pool_stats
(** Counters of the most recent {!map} call in this process (all-zero
    after a sequential-path run). *)

val backoff_delay : ?base_s:float -> ?cap_s:float -> int -> float
(** [backoff_delay attempt] is the supervisor's sleep before retry number
    [attempt] (0-based): [base_s * 2^attempt], capped at [cap_s].
    Non-negative, monotone in [attempt], and never above [cap_s].
    Defaults: [base_s = 0.001], [cap_s = 0.25]. *)

val in_worker : unit -> bool
(** True while executing a task body inside a pool worker process. *)

val task_attempt : unit -> int
(** The current task's 0-based attempt number inside a worker (0 in the
    parent). Fault injectors use it to fail only first attempts. *)

val task_deadline : unit -> float
(** Absolute [Unix.gettimeofday] deadline of the currently running task,
    or [infinity] when it has no budget. Installed around every task body
    (worker, sequential path, inline recovery) from the [budget_of]
    callback; budget-aware bodies poll it to degrade to a looser-but-valid
    answer instead of overrunning. *)

val task_expired : unit -> bool
(** [task_deadline () < infinity] and the clock has passed it. Never
    reads the clock for unbudgeted tasks, so budget-free runs stay
    byte-identical. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]: the processor count, at least
    1 — the [--jobs 0] auto value. *)

val fork_available : bool
(** Whether the process-pool path can run at all (Unix only). *)

val map :
  ?jobs:int ->
  ?timeout_s:float ->
  ?budget_of:(int -> float) ->
  ?on_result:(int -> 'b result -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b result list
(** [map ~jobs ~f tasks] is [List.map f tasks] with per-task wall-clock
    timing, computed by up to [jobs] worker processes. [jobs] defaults to
    {!available_cores}[ ()]. Result order always matches task order.
    [on_result] is invoked in the {e parent}, in completion order, as
    each task finishes (checkpoint journals hang off this). If any task
    failed, {!Task_failed} is raised for the lowest failing index after
    the whole pool has drained.

    [budget_of index] is evaluated in the parent at each dispatch of task
    [index] (including retries) and travels with the request; the task
    body observes it via {!task_deadline}/{!task_expired}. [infinity]
    (and any non-finite value) means unbudgeted. Unlike [timeout_s] —
    which is enforced by killing the worker — a budget is advisory: only
    bodies that poll it degrade. *)

val map_values :
  ?jobs:int ->
  ?timeout_s:float ->
  ?budget_of:(int -> float) ->
  ?on_result:(int -> 'b result -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b list
(** {!map} without the timing wrapper. *)
