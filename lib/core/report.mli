(** Plain-text rendering of the evaluation figures and the methodology
    output.

    A {!Figure.t} renders as the paper's table — one row per QoS goal, one
    column per class bound or deployed heuristic, ["-"] where the class or
    heuristic cannot meet the goal (e.g. local caching above its
    cold-miss ceiling on WEB) — as its CSV, and as its timing table. *)

val print_figure : ?oc:out_channel -> Figure.t -> unit
(** Aligned-column table under the figure's title. *)

val print_selection :
  ?oc:out_channel -> title:string -> Methodology.selection -> unit
(** The ranked class table of the selection methodology. *)

val print_deployment : ?oc:out_channel -> Methodology.deployment -> unit

val csv_of_figure : Figure.t -> string
(** Machine-readable dump: one line per goal, an empty field where the
    goal cannot be met. *)

val print_timing : ?oc:out_channel -> jobs:int -> Figure.t -> unit
(** Where a figure's compute went: one row per task — a bound cell with
    its wall-clock, solver iterations, solve path and stop quality, or a
    deployed point with its wall-clock ([sim], no iterations, quality
    ["-"]) — then a summary line: task count, summed task wall-clock,
    the elapsed wall-clock of every batch together, the implied speedup
    (sum / elapsed) and the worker count. *)
