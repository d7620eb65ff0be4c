(** Deterministic fault injection for the sweep stack.

    Robustness claims are only testable if the failures are repeatable:
    the supervision layer in {!Parallel}, the solver fallback chain, and
    the checkpoint journal all need to be driven through their recovery
    paths on demand, in tests and from the CLI, without flaky timing
    races. This module decides — {e deterministically} — whether a given
    fault fires for a given cell, by hashing the cell's stable key
    together with the fault kind and the injection seed and feeding the
    hash through {!Prng}. The decision depends only on (spec, kind, key),
    never on scheduling, worker identity, or [--jobs], so an injected run
    exercises the same faults at any parallelism level and a recovered
    run can be compared byte-for-byte against an unfaulted one.

    Three fault kinds are supported:

    - {b crash}: the worker process calls [Unix._exit] mid-task, as if
      it had been SIGKILLed. Fires only inside a pool worker on a task's
      {e first} attempt ({!Parallel.task_attempt}[ () = 0]), so the
      supervisor's retry always succeeds and injected sweeps terminate.
    - {b stall}: the task sleeps [stall_s] seconds, long enough (by the
      caller's choice of pool [timeout_s]) to trip timeout supervision.
      Also first-attempt-only, for the same reason.
    - {b diverge}: the sweep pipeline poisons the PDHG solver's input
      (NaN in the patched rhs) on the cell's first solve attempt, forcing
      the numerical-health guards and the fallback chain to run. The
      decision is made here; the poisoning and its attempt-gating live in
      the pipeline.

    One more knob, [ckill_after], kills the parent process itself after
    its [n]-th checkpoint write ({!coordinator_kill_point}), so that
    [--journal] kill-and-resume can be driven without a timed
    [kill -9].

    The ambient spec is installed per process ({!install}) and inherited
    by pool workers through [fork]. *)

type spec = {
  seed : int;  (** injection seed; distinct seeds pick distinct fault sets *)
  crash_prob : float;  (** per-task probability of a worker crash *)
  crash_every : int;  (** crash tasks whose key-hash is [= 0 mod n]; 0 = off *)
  stall_prob : float;  (** per-task probability of an artificial stall *)
  stall_s : float;  (** stall duration in seconds (default 0.5) *)
  diverge_prob : float;  (** per-cell probability of solver-input poisoning *)
  ckill_after : int;
      (** kill the parent process after its [n]-th checkpoint write this
          run (0 = off); the next run resumes from the journal *)
}

val none : spec
(** All faults disabled — the default ambient spec. *)

val is_none : spec -> bool

type error = Parse_error.t = { file : string; line : int; msg : string }
(** Structured parse failure, shared with the other text-format loaders
    ({!Parse_error}). [line] is always 0: fault specs are single-line
    strings, not files. *)

val parse_result : ?file:string -> string -> (spec, error) Stdlib.result
(** Parse a comma-separated [key=value] spec, e.g.
    ["seed=42,crash=0.2,diverge=0.1"] or ["crash_every=3,stall=0.05,stall_s=1"].
    Keys: [seed], [crash], [crash_every], [stall], [stall_s], [diverge]
    and [ckill_after]; any other key is an error.
    Probabilities must lie in [\[0, 1\]]. The empty string parses to
    {!none}. [file] labels the error's [file] field (default
    ["<faults>"]). *)

val to_string : spec -> string
(** Round-trips through {!parse_result}; [""] for {!none}. *)

val install : spec -> unit
(** Set the ambient spec for this process (and, through [fork], for any
    pool workers spawned afterwards). *)

val active : unit -> bool
(** [not (is_none (current ()))]. *)

val hash : seed:int -> kind:string -> string -> int
(** The FNV-1a hash behind {!decide}: a non-negative integer that is a
    pure function of ([seed], [kind], key). Exposed so other
    deterministic samplers (the availability scenario sampler) can
    derive stable per-key integers — outage durations, scenario
    memberships — with the same seeding discipline. *)

val decide : spec -> kind:string -> key:string -> prob:float -> bool
(** The pure core: a deterministic coin flip for ([spec.seed], [kind],
    [key]) with success probability [prob]. Same inputs, same answer, in
    any process. *)

val diverge_requested : key:string -> bool
(** Whether the ambient spec asks for solver-input poisoning on this
    cell. Callers must apply it on the first solve attempt only. *)

val crash_point : key:string -> unit
(** Kill this process via [Unix._exit] if (a) the ambient spec requests
    a crash for [key], (b) we are inside a pool worker, and (c) this is
    the task's first attempt. No-op otherwise — in particular, never
    fires in the parent or on retries. *)

val stall_point : key:string -> unit
(** Sleep [stall_s] under the same worker/first-attempt gating. *)

val coordinator_kill_point : nth:int -> unit
(** Kill this process via [Unix._exit] with status 96 once [nth] (the
    checkpoint count of the current run) reaches the ambient spec's
    [ckill_after] (0 = never). Fires only in the parent — never inside a
    pool worker — so it models the driving process dying mid-sweep with
    a complete journal prefix on disk. *)
