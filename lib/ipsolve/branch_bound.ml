type result =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Node_limit of { incumbent : (float array * float) option }

let src = Logs.Src.create "ipsolve" ~doc:"branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Observability instruments (cached registry lookups). *)
let m_solves = lazy (Obs.Metrics.counter "branch_bound.solves")
let m_nodes = lazy (Obs.Metrics.counter "branch_bound.nodes")
let m_incumbents = lazy (Obs.Metrics.counter "branch_bound.incumbent_updates")
let m_truncated = lazy (Obs.Metrics.counter "branch_bound.node_limit_hits")

let integrality_tol = 1e-6

let solve ?(max_nodes = 100_000) p =
  let incumbent = ref None in
  let nodes = ref 0 in
  let truncated = ref false in
  let better objective =
    match !incumbent with
    | None -> true
    | Some (_, best) -> objective < best -. 1e-9
  in
  let most_fractional x =
    let pick = ref None in
    Array.iteri
      (fun j xj ->
        let frac = Float.abs (xj -. Float.round xj) in
        if frac > integrality_tol then
          match !pick with
          | Some (_, best_frac) when frac <= best_frac -> ()
          | _ -> pick := Some (j, frac))
      x;
    !pick
  in
  let rec explore problem =
    if !nodes >= max_nodes then truncated := true
    else begin
      incr nodes;
      (* Presolve the node first: branching fixes bounds, which cascades
         through the singleton-row rules — many nodes collapse to nothing
         (pruned) or to a single point before the simplex ever runs. The
         reductions are exact, so the restored optimum is the node's true
         relaxation optimum. *)
      let pre = Lp.Presolve.run problem in
      let relaxation =
        match pre.Lp.Presolve.status with
        | `Infeasible -> None
        | `Unchanged | `Reduced ->
          let red = pre.Lp.Presolve.reduced in
          if Lp.Problem.nvars red = 0 then
            Some (pre.Lp.Presolve.restore [||], pre.Lp.Presolve.offset)
          else begin
            match Lp.Simplex.solve red with
            | Lp.Simplex.Infeasible -> None
            | Lp.Simplex.Unbounded ->
              invalid_arg "Branch_bound.solve: unbounded relaxation"
            | Lp.Simplex.Optimal { x; objective } ->
              Some
                ( pre.Lp.Presolve.restore x,
                  objective +. pre.Lp.Presolve.offset )
          end
      in
      match relaxation with
      | None -> ()
      | Some (x, objective) ->
        if better objective then begin
          match most_fractional x with
          | None ->
            Log.debug (fun f ->
                f "node %d: new incumbent %.6g" !nodes objective);
            Obs.Metrics.incr (Lazy.force m_incumbents);
            if Obs.Config.tracing () then
              Obs.Trace.event "branch_bound.incumbent"
                ~attrs:
                  [
                    ("node", Obs.Trace.Int !nodes);
                    ("objective", Obs.Trace.Float objective);
                  ];
            incumbent := Some (Array.copy x, objective)
          | Some (j, _) ->
            let v = x.(j) in
            let lo = problem.Lp.Problem.lower.(j)
            and hi = problem.Lp.Problem.upper.(j) in
            let down_hi = Float.floor v and up_lo = Float.ceil v in
            (* Explore the branch nearest the fractional value first. *)
            let down () =
              if down_hi >= lo -. 1e-12 then
                explore
                  (Lp.Problem.with_var_bounds problem j ~lo
                     ~hi:(Float.min hi down_hi))
            in
            let up () =
              if up_lo <= hi +. 1e-12 then
                explore
                  (Lp.Problem.with_var_bounds problem j ~lo:(Float.max lo up_lo)
                     ~hi)
            in
            if v -. down_hi <= 0.5 then begin
              down ();
              up ()
            end
            else begin
              up ();
              down ()
            end
        end
    end
  in
  Obs.Metrics.incr (Lazy.force m_solves);
  let sp =
    Obs.Trace.span_begin "branch_bound.solve"
      ~attrs:
        [
          ("vars", Obs.Trace.Int (Lp.Problem.nvars p));
          ("max_nodes", Obs.Trace.Int max_nodes);
        ]
  in
  (match explore p with
  | () -> ()
  | exception e ->
    Obs.Trace.span_end sp;
    raise e);
  Obs.Metrics.incr ~by:!nodes (Lazy.force m_nodes);
  if !truncated then Obs.Metrics.incr (Lazy.force m_truncated);
  Obs.Trace.span_end sp
    ~attrs:
      [
        ("nodes", Obs.Trace.Int !nodes);
        ("truncated", Obs.Trace.Bool !truncated);
        ("incumbent", Obs.Trace.Bool (!incumbent <> None));
      ];
  if !truncated then Node_limit { incumbent = !incumbent }
  else
    match !incumbent with
    | Some (x, objective) -> Optimal { x; objective }
    | None -> Infeasible
