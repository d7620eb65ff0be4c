type step_rule = Harmonic | Adaptive

type outcome = {
  bound : float;
  iterations : int;
  lambda : float array;
  subproblems_exact : int;
  subproblems_bounded : int;
  objects : int;
  bundles : int;
  rescaled_members : int;
}

(* Per-bundle-representative subproblem, built once and re-costed per
   lambda:

     min  alpha*w*sum store + beta*w*sum create
        + (RC per-object: alpha*I*w*R)
        - sum_cells lambda_(cell node) * rw_cell * covered_cell

   subject to the continuity rows (3)/(20) over the permission masks,
   covered <= sum of reachable stores, and (optionally) the per-object
   replica rows. All variables boxed, so both the simplex optimum and any
   PDHG dual certificate are finite. *)

(* How a subproblem is settled for every lambda. The solver images hold
   [pre.reduced] itself, whose objective is rewritten in place, and
   neither its matrix nor its rhs ever changes, so each is built once. *)
type route =
  | Trivial  (* no variables *)
  | Fixed  (* presolve fixed every variable *)
  | Simplex of Lp.Simplex.prepared
      (* solved exactly: at most [simplex_size_limit] variables *)
  | Pdhg of Lp.Pdhg.prepared  (* lower-bounded by a short PDHG run *)

type subproblem = {
  problem : Lp.Problem.t;
  covered_cells : Mcperf.Model.covered array;
      (* in reverse creation order, the order [merge_members] sums in *)
  pre : Lp.Presolve.result;
      (* objective-independent reduction, computed once and valid for
         every lambda *)
  restored0 : float array;
      (* the reduced-space origin lifted back: fixed variables at their
         values, everything else 0 — the per-lambda offset of the
         eliminated variables is [dot objective restored0] *)
  route : route;
}

let simplex_size_limit = 200

let build_subproblem (perm : Mcperf.Permission.t) k =
  let spec = perm.Mcperf.Permission.spec in
  let cls = perm.Mcperf.Permission.cls in
  let nodes = Mcperf.Spec.node_count spec in
  let intervals = Mcperf.Spec.interval_count spec in
  let costs = spec.Mcperf.Spec.costs in
  let w = spec.Mcperf.Spec.demand.Workload.Demand.weight.(k) in
  let b = Lp.Problem.Builder.create () in
  (* Mirror Model.build's storage-cost carrier: with a per-object replica
     constraint the alpha charge moves to the R variable (charging both
     would over-count and break the bound's validity). The update term is
     left out (see the interface). *)
  let stores =
    Mcperf.Model.add_stores b perm ~objects:[ k ]
      ~alpha:(cls.Mcperf.Classes.replicas <> Mcperf.Classes.Rc_per_object)
      ~delta:false
  in
  (* Covered variables: objective coefficients are rewritten per lambda,
     so they start at 0. *)
  let covered, _ = Mcperf.Model.add_coverage b perm stores ~penalty:false in
  (* Per-object replica constraint (17a): does not couple objects. *)
  (match cls.Mcperf.Classes.replicas with
  | Mcperf.Classes.Rc_per_object ->
    let rc_terms = Array.make intervals [] in
    List.iter
      (function
        | sv, Mcperf.Model.Store { interval; _ } ->
          rc_terms.(interval) <- (sv, 1.) :: rc_terms.(interval)
        | _ -> ())
      (Mcperf.Model.created stores);
    let has_any = Array.exists (fun terms -> terms <> []) rc_terms in
    if has_any then begin
      let rv =
        Lp.Problem.Builder.add_var b ~lo:0.
          ~hi:(float_of_int (nodes - 1))
          ~obj:(costs.Mcperf.Spec.alpha *. float_of_int intervals *. w)
          ()
      in
      Array.iter
        (fun terms ->
          if terms <> [] then
            Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
              ((rv, -1.) :: terms))
        rc_terms
    end
  | Mcperf.Classes.Rc_none | Mcperf.Classes.Rc_uniform -> ());
  let problem = Lp.Problem.Builder.build b in
  (* Presolve once, with the objective-dependent rule disabled: the
     pricing loop rewrites the covered coefficients in place between
     solves, so only constraint-driven reductions may be frozen. *)
  let pre = Lp.Presolve.run ~fix_unreferenced_vars:false problem in
  (match pre.Lp.Presolve.status with
  | `Infeasible ->
    invalid_arg "Lagrangian: subproblem should be feasible and bounded"
  | `Unchanged | `Reduced -> ());
  let restored0 =
    pre.Lp.Presolve.restore
      (Array.make (Lp.Problem.nvars pre.Lp.Presolve.reduced) 0.)
  in
  let red = pre.Lp.Presolve.reduced in
  let route =
    if Lp.Problem.nvars problem = 0 then Trivial
    else if Lp.Problem.nvars red = 0 then Fixed
    else if Lp.Problem.nvars problem <= simplex_size_limit then
      Simplex (Lp.Simplex.prepare red)
    else Pdhg (Lp.Pdhg.prepare red)
  in
  {
    problem;
    covered_cells = Array.of_list (List.rev covered);
    pre;
    restored0;
    route;
  }

(* Solve (or validly lower-bound) a subproblem whose covered-variable
   objective has been set for the current lambda. Returns the bound, the
   per-cell coverage contributions of the (approximate) minimizer — one
   entry per [covered_cells] slot, in order — and how the solve was
   settled. *)
let solve_sub sub =
  let restore = sub.pre.Lp.Presolve.restore in
  let off () =
    Util.Vecops.dot sub.problem.Lp.Problem.objective sub.restored0
  in
  let contribs x =
    Array.map
      (fun (c : Mcperf.Model.covered) -> c.reads *. x.(c.var))
      sub.covered_cells
  in
  match sub.route with
  | Trivial -> (0., [||], `Trivial)
  | Fixed ->
    (* Every variable was fixed by the constraints alone: the feasible
       set is the single point [restored0], whatever the objective. *)
    (off (), contribs sub.restored0, `Exact)
  | Simplex prep -> (
    match Lp.Simplex.solve_prepared prep with
    | Lp.Simplex.Cert_optimal { x; objective; dual = _ } ->
      (objective +. off (), contribs (restore x), `Exact)
    | Lp.Simplex.Cert_infeasible _ | Lp.Simplex.Cert_unbounded ->
      invalid_arg "Lagrangian: subproblem should be feasible and bounded")
  | Pdhg prep ->
    let out =
      Lp.Pdhg.solve_prepared
        ~options:
          { Lp.Pdhg.default_options with max_iters = 1_500; rel_tol = 1e-6 }
        prep
    in
    ( out.Lp.Pdhg.best_bound +. off (),
      contribs (restore out.Lp.Pdhg.x),
      `Bounded )

(* The builder assigns objective coefficients at construction; rewriting
   them per lambda mutates the (non-private-to-us) objective array in
   place, which is safe because we own these problems. The reduced
   problem's objective is kept in sync through [var_map]; eliminated
   covered variables surface through the [restored0] offset instead. *)
let set_lambda_objective sub lambda =
  let red = sub.pre.Lp.Presolve.reduced in
  let var_map = sub.pre.Lp.Presolve.var_map in
  Array.iter
    (fun (cell : Mcperf.Model.covered) ->
      let c = -.(lambda.(cell.node) *. cell.reads) in
      sub.problem.Lp.Problem.objective.(cell.var) <- c;
      let rj = var_map.(cell.var) in
      if rj >= 0 then red.Lp.Problem.objective.(rj) <- c)
    sub.covered_cells

(* One batch solve of every representative subproblem under the current
   lambda, in representative order. *)
let solve_batch subs lambda =
  Array.iter (fun sub -> set_lambda_objective sub lambda) subs;
  let exact = ref 0 and bounded = ref 0 in
  let vals =
    Array.map
      (fun sub ->
        let v, c, tag = solve_sub sub in
        (match tag with
        | `Exact -> incr exact
        | `Bounded -> incr bounded
        | `Trivial -> ());
        (v, c))
      subs
  in
  (vals, !exact, !bounded)

(* Fold the per-representative solves back over the member objects, in
   ascending object order with the same additions the unbundled loop
   would perform — on a homogeneous bundle (equal weights) the merged
   totals are bitwise those of solving every member individually, which
   is what makes the bundled-vs-unbundled bound delta exactly 0. Members
   whose weight differs from their representative's rescale by w/w_rep
   with a two-ulp downward nudge that dominates the rescale's rounding,
   so the transferred value stays a valid lower bound on the member's
   true subproblem minimum (the minimum is linear in the weight — see
   {!Mcperf.Bundle}). *)
let merge_members ~nodes ~(bundle : Mcperf.Bundle.t) ~weight ~subs vals =
  let coverage = Array.make nodes 0. in
  let sub_total = ref 0. in
  for k = 0 to bundle.Mcperf.Bundle.objects - 1 do
    let b = bundle.Mcperf.Bundle.bundle_of.(k) in
    let v, contribs = vals.(b) in
    let cells = subs.(b).covered_cells in
    if bundle.Mcperf.Bundle.exact_member.(k) then begin
      sub_total := !sub_total +. v;
      Array.iteri
        (fun i (c : Mcperf.Model.covered) ->
          coverage.(c.node) <- coverage.(c.node) +. contribs.(i))
        cells
    end
    else begin
      let r =
        weight.(k) /. weight.(bundle.Mcperf.Bundle.representative.(b))
      in
      let sv = v *. r in
      let guarded = sv -. (2. *. Float.abs sv *. epsilon_float) in
      sub_total := !sub_total +. guarded;
      Array.iteri
        (fun i (c : Mcperf.Model.covered) ->
          coverage.(c.node) <- coverage.(c.node) +. (contribs.(i) *. r))
        cells
    end
  done;
  (!sub_total, coverage)

(* Projected subgradient ascent on the QoS multipliers for one fraction's
   requirement vector [t_n]. *)
let ascend ~iterations ~step_rule ~t_n ~(spec : Mcperf.Spec.t)
    ~bundle ~subs =
  let nodes = Array.length t_n in
  let weight = spec.Mcperf.Spec.demand.Workload.Demand.weight in
  let lambda = Array.make nodes 0. in
  let best_bound = ref 0. in
  let best_lambda = ref (Array.copy lambda) in
  let exact_total = ref 0 and bounded_total = ref 0 in
  let costs = spec.Mcperf.Spec.costs in
  let unit_cost =
    Float.max (costs.Mcperf.Spec.alpha +. costs.Mcperf.Spec.beta) 1e-6
  in
  (* Adaptive rule state: start at the harmonic rule's first step and
     halve after three consecutive non-improving iterations — a Polyak-
     style geometric backoff that needs no clocks and no target value, so
     trajectories stay deterministic. Both rules depend only on the past,
     so the iterate sequence at [iterations = i] is a prefix of the one
     at [iterations = j > i] and the best bound is monotone in the
     iteration budget. *)
  let adaptive_step = ref unit_cost in
  let stalls = ref 0 in
  for t = 0 to iterations - 1 do
    let vals, e, bd = solve_batch subs lambda in
    exact_total := !exact_total + e;
    bounded_total := !bounded_total + bd;
    let sub_total, coverage = merge_members ~nodes ~bundle ~weight ~subs vals in
    let value = Util.Vecops.dot lambda t_n +. sub_total in
    let improved = value > !best_bound in
    if improved then begin
      best_bound := value;
      best_lambda := Array.copy lambda
    end;
    (* Projected subgradient step on g_n = T_n - coverage_n, normalized
       to unit infinity-norm so the multiplier scale tracks the unit
       costs rather than the (much larger) demand counts. *)
    let g = Array.init nodes (fun n -> t_n.(n) -. coverage.(n)) in
    let gmax = Util.Vecops.norm_inf g in
    if gmax > 0. then begin
      let step =
        match step_rule with
        | Harmonic -> unit_cost /. float_of_int (1 + t)
        | Adaptive ->
          if improved then stalls := 0
          else begin
            incr stalls;
            if !stalls >= 3 then begin
              adaptive_step := !adaptive_step /. 2.;
              stalls := 0
            end
          end;
          !adaptive_step
      in
      for n = 0 to nodes - 1 do
        lambda.(n) <- Float.max 0. (lambda.(n) +. (step *. g.(n) /. gmax))
      done
    end
  done;
  (!best_bound, !best_lambda, !exact_total, !bounded_total)

let require_qos ~who (spec : Mcperf.Spec.t) =
  match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Qos _ -> ()
  | Mcperf.Spec.Avg_latency _ ->
    invalid_arg (who ^ ": requires a QoS goal")

let infeasible_outcome ~nodes ~objects =
  {
    bound = infinity;
    iterations = 0;
    lambda = Array.make nodes 0.;
    subproblems_exact = 0;
    subproblems_bounded = 0;
    objects;
    bundles = 0;
    rescaled_members = 0;
  }

(* The span covers the representative builds (model, presolve, solver
   image) but not the bundling itself. *)
let bundle_and_subs ~bundling perm =
  let bundle =
    if bundling then Mcperf.Bundle.compute perm else Mcperf.Bundle.trivial perm
  in
  let sp =
    Obs.Trace.span_begin "lagrangian.subproblems"
      ~attrs:[ ("bundles", Obs.Trace.Int bundle.Mcperf.Bundle.count) ]
  in
  let subs =
    Array.map (build_subproblem perm) bundle.Mcperf.Bundle.representative
  in
  Obs.Trace.span_end sp;
  (bundle, subs)

let run ~iterations ~step_rule ~fraction ~spec ~bundle ~subs
    ~node_totals ~always =
  let nodes = Array.length node_totals in
  let t_n =
    Array.init nodes (fun n ->
        Float.max 0. ((fraction *. node_totals.(n)) -. always.(n)))
  in
  let sp =
    Obs.Trace.span_begin "lagrangian.point"
      ~attrs:
        [
          ("fraction", Obs.Trace.Float fraction);
          ("iterations", Obs.Trace.Int iterations);
          ("bundles", Obs.Trace.Int bundle.Mcperf.Bundle.count);
        ]
  in
  let best, lambda, exact, bounded =
    ascend ~iterations ~step_rule ~t_n ~spec ~bundle ~subs
  in
  Obs.Trace.span_end sp;
  {
    bound = best;
    iterations;
    lambda;
    subproblems_exact = exact;
    subproblems_bounded = bounded;
    objects = bundle.Mcperf.Bundle.objects;
    bundles = bundle.Mcperf.Bundle.count;
    rescaled_members = bundle.Mcperf.Bundle.rescaled;
  }

let sweep ?(iterations = 60) ?(step_rule = Harmonic) ?(bundling = true) spec
    cls ~fractions =
  require_qos ~who:"Lagrangian.sweep" spec;
  let perm = Mcperf.Permission.compute spec cls in
  let nodes = Mcperf.Spec.node_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let node_totals = Workload.Demand.node_read_totals spec.Mcperf.Spec.demand in
  (* Always-covered demand reduces the QoS requirements; it never reads
     the fraction, so one vector serves the whole sweep. *)
  let always = Mcperf.Model.always_covered perm in
  (* The permission masks never read the fraction, so the bundling and
     every representative subproblem are shared across the whole sweep;
     only the requirement vector t_n changes per point. Built lazily so a
     sweep of entirely infeasible points does no model work. *)
  let shared = lazy (bundle_and_subs ~bundling perm) in
  List.map
    (fun fraction ->
      let permq = Mcperf.Permission.with_fraction perm fraction in
      if not (Mcperf.Permission.feasible permq) then
        (fraction, infeasible_outcome ~nodes ~objects)
      else begin
        let bundle, subs = Lazy.force shared in
        ( fraction,
          run ~iterations ~step_rule ~fraction ~spec ~bundle ~subs
            ~node_totals ~always )
      end)
    fractions

(* One point of [sweep]: re-targeting the analysis at the spec's own
   fraction changes nothing, so this is the standalone bound. *)
let bound ?iterations ?step_rule ?bundling spec cls =
  require_qos ~who:"Lagrangian.bound" spec;
  match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Qos { fraction; _ } ->
    let points =
      sweep ?iterations ?step_rule ?bundling spec cls ~fractions:[ fraction ]
    in
    snd (List.hd points)
  | Mcperf.Spec.Avg_latency _ -> assert false
