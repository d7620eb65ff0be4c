(** Object bundling: canonicalization of per-object subproblem structure.

    Under Zipf demand most objects are tail objects — read a handful of
    times from one or two nodes — and vast numbers of them present the
    {e identical} face to a per-object solver: the same store/create
    permission masks and the same read cells, differing only in the demand
    weight. This pass groups objects by that structural key so a
    decomposition solver (see {!Bounds.Lagrangian}) solves one
    representative subproblem per bundle and rescales.

    The key of object [k] is the triple

    - the store-mask column [store_mask.(m).(k)] over all nodes [m],
    - the create-mask column [create_mask.(m).(k)] over all nodes [m],
    - the read cells [(node, interval, count)] of [k],

    and deliberately {e excludes} the demand weight [w_k]. Exactness in
    the homogeneous case: every term of the per-object Lagrangian
    subproblem objective carries the factor [w_k] (storage [alpha*w],
    creation [beta*w], the per-object replica variable [alpha*I*w], and
    the relaxed coverage prices [-lambda_n * count * w]), while the
    constraints never read [w_k]. The minimum is therefore linear in
    [w_k] and the argmin is [w_k]-invariant, so members with the
    representative's weight reuse its optimum bitwise and members with a
    different weight rescale by [w_k / w_rep] (callers must guard that
    rescale against rounding to keep lower bounds valid — see
    [exact_member]). *)

type t = {
  objects : int;  (** number of objects bundled *)
  count : int;  (** number of bundles (distinct structural keys) *)
  representative : int array;
      (** bundle -> the lowest object id with that key *)
  bundle_of : int array;  (** object -> its bundle *)
  exact_member : bool array;
      (** per object: its demand weight equals its representative's, so
          the representative's optimum transfers bitwise (no rescale) *)
  rescaled : int;  (** objects with [exact_member = false] *)
}

val compute : Permission.t -> t
(** Groups the permission analysis's objects by structural key. Bundles
    are numbered in first-occurrence order over ascending object ids, so
    the result is deterministic for a given permission analysis. Keys
    compare structurally, read counts by bit pattern. Cost: per object,
    its read cells times the nodes each can reach (the only nodes whose
    masks {!Permission.compute} can have set), plus one hash-table
    lookup. *)

val ratio : t -> float
(** Objects per bundle ([objects / count]; 1.0 when nothing collapses,
    and for the degenerate 0-object instance). *)

val trivial : Permission.t -> t
(** The identity bundling: every object its own bundle. Used to force the
    unbundled reference path. *)
