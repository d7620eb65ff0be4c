(** The scale scenario family: CDN hierarchies at 200+ nodes with
    heavy-tailed demand over 10k+ objects.

    The paper's case study stops at 20 nodes / 1000 objects; this family
    is the substrate for pushing fig2-style sweeps 10–100x further
    through the Lagrangian decomposition route ({!Bounds.Lagrangian}).
    Latencies are chosen so leaves are never origin-covered (every leaf
    read needs a replica), and the Zipf tail is quantized so that vast
    numbers of objects share identical permission masks and read cells —
    the structure {!Mcperf.Bundle} collapses. All demand weights are 1,
    so the family is {e homogeneous}: the bundled Lagrangian bound equals
    the unbundled one exactly (bit for bit), which the scale gates in
    [scripts/check.sh] and the [bundling] bench leg assert. *)

type t = {
  name : string;
  system : Topology.System.t;
  demand : Workload.Demand.t;
  tlat_ms : float;  (** QoS latency threshold of {!qos_spec} *)
  leaves : int;  (** size of the bottom tier (where all reads originate) *)
}

val default_tlat_ms : float

val make :
  ?seed:int ->
  ?fanouts:int list ->
  ?objects:int ->
  ?intervals:int ->
  unit ->
  t
(** Deterministic in [seed] (default 7). [fanouts] (default [[4; 7; 7]],
    i.e. 229 nodes) sets one tier fan-out per level below the origin;
    [objects] defaults to 10_000 and [intervals] to 2. *)

val qos_spec : t -> fraction:float -> Mcperf.Spec.t
(** The MC-PERF spec at one QoS point (default unit alpha/beta costs). *)

val node_count : t -> int
val object_count : t -> int
