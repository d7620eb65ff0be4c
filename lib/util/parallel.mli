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
      is forked and the in-flight task is re-dispatched with exponential
      backoff. After {!max_task_attempts} worker attempts the task is
      computed inline in the parent, so every task still yields a result;
    - a task that raises in a worker is a {e structured} failure: the
      worker survives, every other task still runs to completion, and the
      failure is reported at the end — {!map} raises {!Task_failed} for
      the lowest failing index;
    - a task that exceeds [timeout_s] gets its worker killed and is
      retried on a fresh worker (transient stalls recover); when the
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
    a per-task trace scope ([task:<index>]) with fresh logical counters
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
  worker_deaths : int;  (** local fork workers that died while the pool was live *)
  respawns : int;  (** replacement workers forked *)
  task_retries : int;  (** in-flight tasks re-dispatched to a worker *)
  inline_recoveries : int;  (** tasks computed in the parent as last resort *)
  timeouts : int;  (** deadline expiries (the task may have recovered) *)
  fork_failures : int;  (** failed [fork]/[pipe] attempts *)
  degraded : bool;  (** the pool fell back to sequential execution *)
  remote_workers : int;  (** remote endpoints configured for this map *)
  remote_deaths : int;  (** remote endpoints that died mid-pool *)
  reconnects : int;  (** successful remote re-acquisitions after a death *)
  blacklisted : int;  (** remote endpoints retired after repeated failures *)
}

val zero_stats : pool_stats

val last_pool_stats : unit -> pool_stats
(** Counters of the most recent {!map} call in this process (all-zero
    after a sequential-path run). *)

val max_task_attempts : int
(** Worker attempts per task before the parent computes it inline (or,
    for timeouts, raises). *)

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
(** Processor count from [/proc/cpuinfo] (fallback: [getconf
    _NPROCESSORS_ONLN]; 1 when neither is readable). *)

val default_jobs : unit -> int
(** [available_cores], floored at 1 — the [--jobs 0] auto value. *)

val fork_available : bool
(** Whether the process-pool path can run at all (Unix only). *)

(** {2 Remote endpoints}

    The pool is generalized over its transport: besides forked local
    workers it can feed {e remote endpoints} — live connections to worker
    processes elsewhere, created by factories the caller passes via
    [?remote] (the TCP implementation lives in [Dist]). Each factory owns
    one pool slot; the pool asks it for a connection at startup and after
    every death, so reconnect-backoff and blacklist policy live in the
    factory while requeue/retry/inline-recovery supervision stays here.
    A dead endpoint (exception out of send/recv/ping) has its in-flight
    task requeued exactly like a dead local worker; when every endpoint
    and worker is gone the pool degrades to sequential execution in the
    parent, so a sweep always completes. *)

type 'b response = int * ('b, string) Stdlib.result * float * string
(** One task response: (index, result-or-printed-exception, task
    wall-clock, drained observability payload — [""] when obs is off). *)

type 'b endpoint = {
  ep_descr : string;  (** for supervision traces, e.g. ["dist:host:9070"] *)
  ep_fd : Unix.file_descr;
      (** select handle; readable must mean a full response is coming —
          endpoints exchange exactly one response per dispatched task and
          keep no buffered partial frames between exchanges *)
  ep_fds : Unix.file_descr list;
      (** every parent-side fd of the endpoint; freshly forked local
          workers close them so endpoint death surfaces as EOF *)
  ep_send : int * int * float -> unit;
      (** dispatch [(index, attempt, budget_s)]; raising marks the
          endpoint dead and requeues the task at the same attempt *)
  ep_recv : unit -> 'b response;
      (** read the one pending response; raising marks the endpoint dead *)
  ep_ping : unit -> unit;
      (** synchronous liveness round trip, called only while no task is
          in flight on this endpoint; no-op for local forks *)
  ep_close : kill:bool -> unit;
      (** release the endpoint; [kill] skips graceful shutdown *)
}

type 'b remote_acquire =
  | Remote_ok of 'b endpoint
  | Remote_unavailable
      (** connect failed after the factory's bounded backoff retries;
          the pool retries the factory at a later dispatch round *)
  | Remote_blacklisted
      (** the factory gave up on this endpoint for good; its slot is
          retired and never refilled *)

type 'b remote_factory = unit -> 'b remote_acquire

val heartbeat_idle_s : float
(** A remote endpoint idle longer than this is pinged (one synchronous
    round trip) before the next task is committed to it, so a silently
    half-open connection costs a reconnect, not a task timeout. *)

val current_phase : unit -> int
(** The pool phase counter (bumped once per {!map} call, reset by
    [Obs.Config.install]). Remote sessions receive the coordinator's
    phase in their handshake so merged traces agree on task scopes. *)

val set_phase : int -> unit
(** Install a phase received from a coordinator (remote worker sessions
    only; call {e after} installing the obs config, which resets it). *)

val run_task :
  f:(unit -> 'b) ->
  index:int ->
  attempt:int ->
  budget_s:float ->
  ('b, string) Stdlib.result * float * string
(** Execute one task body under the full worker discipline — ambient
    {!task_attempt} context, {!task_deadline}, per-task trace scope,
    clamped wall clock, drained obs payload — exactly as the forked
    serve loop does. Remote worker servers use it so a task behaves
    identically whichever transport delivered it. *)

val map :
  ?jobs:int ->
  ?timeout_s:float ->
  ?budget_of:(int -> float) ->
  ?remote:'b remote_factory list ->
  ?on_result:(int -> 'b result -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b result list
(** [map ~jobs ~f tasks] is [List.map f tasks] with per-task wall-clock
    timing, computed by up to [jobs] worker processes. [jobs] defaults to
    {!default_jobs}[ ()]. Result order always matches task order.
    [on_result] is invoked in the {e parent}, in completion order, as
    each task finishes (checkpoint journals hang off this). If any task
    failed, {!Task_failed} is raised for the lowest failing index after
    the whole pool has drained.

    [budget_of index] is evaluated in the parent at each dispatch of task
    [index] (including retries) and travels with the request; the task
    body observes it via {!task_deadline}/{!task_expired}. [infinity]
    (and any non-finite value) means unbudgeted. Unlike [timeout_s] —
    which is enforced by killing the worker — a budget is advisory: only
    bodies that poll it degrade.

    [remote] adds one pool slot per endpoint factory. With [remote]
    non-empty the pool always runs (even at [jobs <= 1], which then
    means {e no local fork workers} — coordinator plus remotes only).
    Pass [timeout_s] whenever remote endpoints are configured: a dropped
    dispatch frame produces no response and only the task timeout can
    reclaim it. *)

val map_values :
  ?jobs:int ->
  ?timeout_s:float ->
  ?budget_of:(int -> float) ->
  ?remote:'b remote_factory list ->
  ?on_result:(int -> 'b result -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b list
(** {!map} without the timing wrapper. *)
