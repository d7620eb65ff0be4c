(** Trace / metrics output backends and the worker payload protocol.

    The sink is chosen by {!Config.t.sink}:
    - [Null] — events are buffered and then discarded on {!flush};
      recording still happens so determinism checks can compare traced
      and untraced runs.
    - [Memory] — events stay readable via {!Trace.events} after
      {!flush}.
    - [Jsonl_file f] — {!flush} writes the merged trace to [f], one
      JSON object per line, in deterministic [(scope, seq)] order.

    Worker processes never touch the sink: they buffer locally and the
    pool ships their buffers to the parent as an opaque {!payload}
    string riding the existing result pipe, where {!absorb_payload}
    merges them.  An empty payload string is the "nothing to report"
    fast path. *)

val payload : unit -> string
(** Drain this process's trace buffer and metrics registry into an
    opaque string (worker side).  Returns [""] when observability is
    off or nothing was recorded — callers can ship that for free. *)

val absorb_payload : string -> unit
(** Merge a {!payload} from a worker (parent side).  [""] is a no-op.
    Absorbing the same worker buffer twice would double-count, so the
    pool only absorbs payloads of {e accepted} task completions. *)

val flush : unit -> unit
(** Send buffered data to the configured backends: the trace to
    {!Config.t.sink}, and — if [metrics_path] is set — the metrics
    snapshot JSON to that path.  File writes go through a temp file and
    rename, so a crash mid-flush never leaves a torn trace. *)
