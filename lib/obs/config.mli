(** Ambient observability configuration.

    The configuration is an immutable record installed once per process
    (workers inherit it through [fork]).  Every instrumentation site in
    the codebase guards its work behind {!tracing} / {!metering}, which
    compile down to a ref dereference and a field read, so the default
    {!disabled} configuration costs nothing measurable on hot paths.

    {b Determinism contract.}  When [wall_clock] is [false] (the
    default), no instrumentation site ever reads a clock: trace events
    are ordered by per-scope logical counters and carry no timestamps,
    so a traced sweep produces byte-identical output at every [--jobs].
    Enabling [wall_clock] (the [--profile] flag) attaches wall-clock
    attributes and timing histograms, which naturally differ run to
    run. *)

type sink_spec =
  | Null  (** discard trace events (still counted when tracing) *)
  | Memory  (** keep events in memory; read back with {!Trace.events} *)
  | Jsonl_file of string  (** append-on-flush JSONL trace file *)

type t = {
  trace : bool;  (** collect spans and point events *)
  metrics : bool;  (** collect counters / histograms *)
  wall_clock : bool;
      (** attach wall-clock attributes; [false] keeps logical mode *)
  sink : sink_spec;  (** where {!Sink.flush} sends the trace *)
  metrics_path : string option;
      (** where {!Sink.flush} writes the metrics snapshot, if anywhere *)
}

val disabled : t
(** Everything off; the process-start default. *)

val default : t
(** Tracing and metrics on in logical (deterministic) mode, null sink.
    A convenient base for [with_*]-style record updates. *)

val install : t -> unit
(** Make [t] the ambient configuration and reset all trace / metric
    state (spans, buffered events, registries).  Install before forking
    workers so children inherit the same view. *)

val current : unit -> t

val on_install : (unit -> unit) -> unit
(** Register a reset hook run by every {!install}.  Used internally by
    {!Trace} and {!Metrics} to clear their state; not for end users. *)

val tracing : unit -> bool
(** Fast check: is span / event collection on? *)

val metering : unit -> bool
(** Fast check: is metric collection on? *)

val wall_clock : unit -> bool
(** Fast check: are wall-clock attributes on? *)
