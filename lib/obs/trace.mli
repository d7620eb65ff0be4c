(** Structured spans and point events.

    Events belong to a {e scope} — a logical thread of control such as
    ["main"], ["task:1.17"] (phase 1, task 17), or ["pool"].  Each scope
    carries its own span
    stack, span-id counter, and logical sequence counter, so a task's
    events are identical no matter which OS process executed it.  That
    is what lets a [--jobs 4] trace merge into the same byte sequence as
    a [--jobs 1] trace (modulo wall-clock attributes): the merge orders
    events by [(scope, seq)], both of which are logical.

    Spans are well-bracketed by construction: {!span_end} implicitly
    closes any children still open on the scope's stack, and ending a
    span that is not on the stack is a silent no-op (its events were
    already attributed). *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type kind = Span_begin | Span_end | Point

type event = {
  scope : string;
  seq : int;  (** per-scope logical tick; dense from 0 *)
  kind : kind;
  name : string;
  id : int;  (** span id (per-scope, dense from 1); 0 for points *)
  parent : int;  (** enclosing span id; 0 at scope root *)
  wall_s : float;  (** wall-clock seconds; [nan] in logical mode *)
  attrs : (string * attr) list;
}

type span
(** Handle returned by {!span_begin}; scope-local. *)

val set_scope : string -> unit
(** Switch the ambient scope for subsequent events.  Scope state is
    keyed by name, so re-entering a scope resumes its counters. *)

val scope : unit -> string

val span_begin : ?attrs:(string * attr) list -> string -> span
(** Open a span in the ambient scope.  No-op handle when tracing is
    off. *)

val span_end : ?attrs:(string * attr) list -> span -> unit

val event : ?attrs:(string * attr) list -> string -> unit
(** Emit a point event parented to the innermost open span. *)

val drain : unit -> event list
(** Remove and return every buffered event (worker side, before
    shipping to the parent).  Order is emission order. *)

val absorb : event list -> unit
(** Append events drained in another process to this process's buffer
    (parent side).  Scopes are preserved, so the final sort puts them
    where a sequential run would have. *)

val events : unit -> event list
(** All buffered events in deterministic merged order: sorted by
    [(scope_rank, seq)] where task scopes rank numerically by
    [(phase, index)], ["main"] ranks first and other scopes (e.g.
    ["pool"]) last alphabetically.  The sort is stable and total
    because [seq] is dense per scope. *)

val event_to_json : event -> string
(** One JSONL line (no trailing newline).  Wall-clock attributes —
    the [wall_s] field and any attr whose key starts with ["wall_"] —
    are omitted in logical mode and present otherwise. *)

