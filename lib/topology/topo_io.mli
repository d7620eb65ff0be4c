(** Plain-text topology serialization.

    Format: a header with the node count (and optionally the origin), then
    one CSV record per undirected edge:

    {v
    # replica-select topology v1 nodes=20 origin=4
    u,v,latency_ms
    0,1,137.2
    1,4,101.0
    v}

    Real AS-level measurements (the paper used a Telstra-derived topology)
    can be converted to this format and loaded with {!load_system_result}.

    The reading entry points never raise on malformed input, and every
    field is validated at the boundary — non-finite or negative
    latencies are rejected as an {!error} carrying the offending line,
    before they can corrupt any downstream shortest path, and a header
    declaring more than 2{^20} nodes is rejected at line 1 before any
    graph is allocated. *)

(** {1 Writing} *)

val save : ?origin:int -> Graph.t -> path:string -> unit
val to_string : ?origin:int -> Graph.t -> string

(** {1 Reading} *)

type error = Util.Parse_error.t = {
  file : string;  (** path, or ["<topology>"] when parsed from a string *)
  line : int;  (** 1-based line of the offending record; 0 = whole file *)
  msg : string;
}
(** Shared structured parse failure (see {!Util.Parse_error}); the
    re-export keeps field access working without opening [Util]. *)

val parse : ?file:string -> string -> (Graph.t * int option, error) result
(** The graph plus the origin recorded in the header, if any. Never
    raises on malformed input; errors are labelled [file] (default
    ["<topology>"]). *)

val load_result : path:string -> (Graph.t * int option, error) result
(** {!parse} on the file's contents; an unreadable file (missing,
    permission) is reported as an [error] with [line = 0]
    ({!Util.Parse_error.read_file}). *)

val load_system_result : path:string -> (System.t, error) result
(** {!load_result} followed by {!System.make} (using the recorded
    origin, or the highest-degree node); an origin outside the graph is
    reported as an [error] rather than raised. *)
