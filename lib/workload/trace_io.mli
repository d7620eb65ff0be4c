(** Plain-text trace serialization.

    Format: a header line carrying the trace dimensions, then one CSV
    record per event in time order:

    {v
    # replica-select trace v1 nodes=20 objects=1000 duration_s=86400
    time_s,node,object,kind
    12.5,3,17,r
    13.1,0,2,w
    v}

    Intended for exchanging synthetic workloads between runs and for
    importing real traces (convert to this format, then
    {!Workload.Demand.of_trace} buckets them).

    The reading entry points never raise on malformed input, and every
    field is validated at the boundary — non-finite timestamps or
    durations are rejected as an {!error} carrying the offending line,
    and node/object ids are checked against the header dimensions. *)

(** {1 Writing} *)

val save : Trace.t -> path:string -> unit
(** Writes the trace; overwrites an existing file. *)

val to_string : Trace.t -> string

(** {1 Reading} *)

type error = Util.Parse_error.t = {
  file : string;  (** path, or ["<trace>"] when parsed from a string *)
  line : int;  (** 1-based line of the offending record; 0 = whole file *)
  msg : string;
}
(** Shared structured parse failure (see {!Util.Parse_error}); the
    re-export keeps field access working without opening [Util]. *)

val parse : ?file:string -> string -> (Trace.t, error) result
(** Never raises on malformed input; errors are labelled [file] (default
    ["<trace>"]). *)

val load_result : path:string -> (Trace.t, error) result
(** {!parse} on the file's contents; an unreadable file (missing,
    permission) is reported as an [error] with [line = 0]
    ({!Util.Parse_error.read_file}). *)
