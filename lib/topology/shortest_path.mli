(** Shortest-path latencies between all node pairs.

    The MC-PERF model only consumes the latency matrix ([latency_nm] in the
    paper, Table 1), so this module materializes it once per topology.
    Dijkstra from every source is the workhorse; Floyd–Warshall is kept as
    an independent oracle for the test suite. *)

val dijkstra : Graph.t -> int -> float array
(** [dijkstra g src] returns the array of shortest-path latencies from
    [src]; unreachable nodes map to [infinity]. *)

val all_pairs : Graph.t -> float array array
(** [all_pairs g] is the full latency matrix ([m.(u).(v)]); the diagonal is
    [0.] (a local access has negligible network latency). *)

val floyd_warshall : Graph.t -> float array array
(** Same contract as {!all_pairs}, computed by Floyd–Warshall. Used as a
    cross-check in tests; O(n^3). *)
