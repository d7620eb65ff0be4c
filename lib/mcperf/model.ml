type var_kind =
  | Store of { node : int; interval : int; object_id : int }
  | Create of { node : int; interval : int; object_id : int }
  | Covered of { node : int; interval : int; object_id : int }
  | Route of { node : int; from_node : int; interval : int; object_id : int }
  | Capacity of { node : int option }
  | Replicas of { object_id : int option }
  | Open_node of { node : int }

type t = {
  permission : Permission.t;
  problem : Lp.Problem.t;
  kinds : var_kind array;
  objective_offset : float;
  node_totals : float array;
  always_covered : float array;
}

let pack ~intervals ~objects ~node ~interval ~object_id =
  ((node * objects) + object_id) * intervals + interval

let build (perm : Permission.t) =
  let spec = perm.spec in
  let cls = perm.cls in
  let sys = spec.system in
  let demand = spec.demand in
  let nodes = Spec.node_count spec in
  let intervals = Spec.interval_count spec in
  let objects = Spec.object_count spec in
  let origin = sys.Topology.System.origin in
  let weight = demand.Workload.Demand.weight in
  let costs = spec.costs in
  let b = Lp.Problem.Builder.create () in
  let kinds = ref [] in
  let nkinds = ref 0 in
  let new_var kind ~lo ~hi ~obj () =
    let idx = Lp.Problem.Builder.add_var b ~lo ~hi ~obj () in
    kinds := kind :: !kinds;
    incr nkinds;
    idx
  in
  (* Storage cost carrier: under a storage or replica constraint the
     per-interval storage bill is alpha * capacity (equality-constrained
     heuristics always pay for the full fixed footprint), so the alpha
     coefficient moves from the store variables to the capacity/replica
     variables. *)
  let sc_active = cls.Classes.storage <> Classes.Sc_none in
  let rc_active = cls.Classes.replicas <> Classes.Rc_none in
  let alpha_on_store = (not sc_active) && not rc_active in
  (* Total (weighted) write count per (object, interval), for the update
     cost extension (12). *)
  let write_totals =
    if costs.Spec.delta > 0. then begin
      let w = Array.make_matrix objects intervals 0. in
      Array.iteri
        (fun k cells ->
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              w.(k).(c.interval) <- w.(k).(c.interval) +. c.count)
            cells)
        demand.Workload.Demand.writes;
      Some w
    end
    else None
  in
  (* --- store and create variables over the pruned support -------------- *)
  let store_tbl = Hashtbl.create 4096 in
  (* Accumulators for the coupling rows built after variable creation. *)
  let sc_terms = Array.make_matrix nodes intervals [] in
  let rc_terms = Array.make_matrix objects intervals [] in
  let node_has_store = Array.make nodes false in
  for m = 0 to nodes - 1 do
    if m <> origin then
      for k = 0 to objects - 1 do
        let smask = perm.Permission.store_mask.(m).(k) in
        if smask <> 0 then begin
          let w = weight.(k) in
          let prev_store = ref None in
          for i = 0 to intervals - 1 do
            if smask land (1 lsl i) <> 0 then begin
              let store_obj =
                (if alpha_on_store then costs.Spec.alpha *. w else 0.)
                +.
                match write_totals with
                | Some wt -> costs.Spec.delta *. w *. wt.(k).(i)
                | None -> 0.
              in
              let sv =
                new_var
                  (Store { node = m; interval = i; object_id = k })
                  ~lo:0. ~hi:1. ~obj:store_obj ()
              in
              Hashtbl.add store_tbl
                (pack ~intervals ~objects ~node:m ~interval:i ~object_id:k)
                sv;
              node_has_store.(m) <- true;
              sc_terms.(m).(i) <- (sv, w) :: sc_terms.(m).(i);
              rc_terms.(k).(i) <- (sv, 1.) :: rc_terms.(k).(i);
              (* Continuity row (3)+(20): store_i <= store_(i-1) + create_i,
                 with the terms that exist. *)
              let row = ref [ (sv, 1.) ] in
              (match !prev_store with
              | Some pv -> row := (pv, -1.) :: !row
              | None -> ());
              if Permission.create_allowed perm ~node:m ~interval:i ~object_id:k
              then begin
                let cv =
                  new_var
                    (Create { node = m; interval = i; object_id = k })
                    ~lo:0. ~hi:1.
                    ~obj:(costs.Spec.beta *. w)
                    ()
                in
                row := (cv, -1.) :: !row
              end;
              Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0. !row;
              prev_store := Some sv
            end
            else prev_store := None
          done
        end
      done
  done;
  (* --- goal-specific variables and rows --------------------------------- *)
  let node_totals = Workload.Demand.node_read_totals demand in
  let always_covered = Array.make nodes 0. in
  let objective_offset = ref 0. in
  (match spec.Spec.goal with
  | Spec.Qos { tlat_ms; fraction } ->
    let qos_terms = Array.make nodes [] in
    let penalty_per_read n =
      if costs.Spec.gamma <= 0. then 0.
      else
        (* Uncovered reads fall back to the origin; penalty accrues for the
           latency above the threshold (term (11), with the fallback route
           made explicit). *)
        Float.max 0. (sys.Topology.System.latency.(n).(origin) -. tlat_ms)
        *. costs.Spec.gamma
    in
    Array.iteri
      (fun k cells ->
        let w = weight.(k) in
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            let n = c.node and i = c.interval in
            let rw = w *. c.count in
            if perm.Permission.origin_covered.(n) then
              always_covered.(n) <- always_covered.(n) +. rw
            else begin
              (* Stores that can cover this read. *)
              let covering = ref [] in
              for m = 0 to nodes - 1 do
                if perm.Permission.reach.(n).(m) then
                  match
                    Hashtbl.find_opt store_tbl
                      (pack ~intervals ~objects ~node:m ~interval:i
                         ~object_id:k)
                  with
                  | Some sv -> covering := sv :: !covering
                  | None -> ()
              done;
              if !covering <> [] then begin
                let pen = penalty_per_read n in
                let cv =
                  new_var
                    (Covered { node = n; interval = i; object_id = k })
                    ~lo:0. ~hi:1.
                    ~obj:(-.rw *. pen)
                    ()
                in
                objective_offset := !objective_offset +. (rw *. pen);
                Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                  ((cv, 1.) :: List.map (fun sv -> (sv, -1.)) !covering);
                qos_terms.(n) <- (cv, rw) :: qos_terms.(n)
              end
              else begin
                (* Uncoverable demand still pays the penalty. *)
                objective_offset :=
                  !objective_offset +. (rw *. penalty_per_read n)
              end
            end)
          cells)
      demand.Workload.Demand.reads;
    (* Constraint (2), one row per user/node. Rows are emitted whenever
       the node has coverage options, even when trivially satisfied: the
       row set fixes presolve's reductions and PDHG's iterates, so every
       pinned bound depends on this rule. *)
    for n = 0 to nodes - 1 do
      let rhs = (fraction *. node_totals.(n)) -. always_covered.(n) in
      if qos_terms.(n) <> [] then
        Lp.Problem.Builder.add_row b Lp.Problem.Ge ~rhs qos_terms.(n)
      else if rhs > 1e-9 then
        (* No coverage options at all: encode the (infeasible) requirement
           explicitly so the LP reports infeasibility rather than silently
           dropping the user. *)
        Lp.Problem.Builder.add_row b Lp.Problem.Ge ~rhs []
    done
  | Spec.Avg_latency { tavg_ms } ->
    (* Constraints (7)-(10) with route variables restricted to nodes that
       can possibly hold the object (plus the origin, which always can). *)
    let avg_terms = Array.make nodes [] in
    Array.iteri
      (fun k cells ->
        let w = weight.(k) in
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            let n = c.node and i = c.interval in
            let rw = w *. c.count in
            let routes = ref [] in
            for m = 0 to nodes - 1 do
              let candidate =
                if m = origin then perm.Permission.reach.(n).(m)
                else
                  perm.Permission.reach.(n).(m)
                  && Hashtbl.mem store_tbl
                       (pack ~intervals ~objects ~node:m ~interval:i
                          ~object_id:k)
              in
              if candidate then begin
                let rv =
                  new_var
                    (Route { node = n; from_node = m; interval = i; object_id = k })
                    ~lo:0. ~hi:1. ~obj:0. ()
                in
                routes := (m, rv) :: !routes;
                if m <> origin then begin
                  let sv =
                    Hashtbl.find store_tbl
                      (pack ~intervals ~objects ~node:m ~interval:i
                         ~object_id:k)
                  in
                  (* (9): route only to nodes that store the object. *)
                  Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                    [ (rv, 1.); (sv, -1.) ]
                end;
                avg_terms.(n) <-
                  (rv, rw *. sys.Topology.System.latency.(n).(m))
                  :: avg_terms.(n)
              end
            done;
            (* (8): each request is routed somewhere. *)
            Lp.Problem.Builder.add_row b Lp.Problem.Eq ~rhs:1.
              (List.map (fun (_, rv) -> (rv, 1.)) !routes))
          cells)
      demand.Workload.Demand.reads;
    (* (7): per-user average latency bound. *)
    for n = 0 to nodes - 1 do
      if node_totals.(n) > 0. && avg_terms.(n) <> [] then
        Lp.Problem.Builder.add_row b Lp.Problem.Le
          ~rhs:(tavg_ms *. node_totals.(n))
          avg_terms.(n)
    done);
  (* --- storage constraint (16)/(16a) ------------------------------------ *)
  let total_weight = Util.Vecops.sum weight in
  (match cls.Classes.storage with
  | Classes.Sc_none -> ()
  | Classes.Sc_uniform ->
    let sites =
      float_of_int
        (Array.fold_left
           (fun acc p -> if p then acc + 1 else acc)
           0 perm.Permission.placeable)
    in
    let cap =
      new_var (Capacity { node = None }) ~lo:0. ~hi:total_weight
        ~obj:(costs.Spec.alpha *. float_of_int intervals *. sites)
        ()
    in
    for m = 0 to nodes - 1 do
      for i = 0 to intervals - 1 do
        if sc_terms.(m).(i) <> [] then
          Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
            ((cap, -1.) :: sc_terms.(m).(i))
      done
    done
  | Classes.Sc_per_node ->
    for m = 0 to nodes - 1 do
      if node_has_store.(m) then begin
        let cap =
          new_var (Capacity { node = Some m }) ~lo:0. ~hi:total_weight
            ~obj:(costs.Spec.alpha *. float_of_int intervals)
            ()
        in
        for i = 0 to intervals - 1 do
          if sc_terms.(m).(i) <> [] then
            Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
              ((cap, -1.) :: sc_terms.(m).(i))
        done
      end
    done);
  (* --- replica constraint (17)/(17a) ------------------------------------ *)
  (match cls.Classes.replicas with
  | Classes.Rc_none -> ()
  | Classes.Rc_uniform ->
    let rep =
      new_var (Replicas { object_id = None }) ~lo:0.
        ~hi:(float_of_int (nodes - 1))
        ~obj:(costs.Spec.alpha *. float_of_int intervals *. total_weight)
        ()
    in
    for k = 0 to objects - 1 do
      for i = 0 to intervals - 1 do
        if rc_terms.(k).(i) <> [] then
          Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
            ((rep, -1.) :: rc_terms.(k).(i))
      done
    done
  | Classes.Rc_per_object ->
    for k = 0 to objects - 1 do
      let has_any =
        Array.exists (fun terms -> terms <> []) rc_terms.(k)
      in
      if has_any then begin
        let rep =
          new_var (Replicas { object_id = Some k })
            ~lo:0.
            ~hi:(float_of_int (nodes - 1))
            ~obj:(costs.Spec.alpha *. float_of_int intervals *. weight.(k))
            ()
        in
        for i = 0 to intervals - 1 do
          if rc_terms.(k).(i) <> [] then
            Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
              ((rep, -1.) :: rc_terms.(k).(i))
        done
      end
    done);
  (* --- node opening (13)/(14) -------------------------------------------- *)
  if costs.Spec.zeta > 0. then
    for m = 0 to nodes - 1 do
      if m <> origin && node_has_store.(m) then begin
        let ov =
          new_var (Open_node { node = m }) ~lo:0. ~hi:1. ~obj:costs.Spec.zeta ()
        in
        for k = 0 to objects - 1 do
          for i = 0 to intervals - 1 do
            match
              Hashtbl.find_opt store_tbl
                (pack ~intervals ~objects ~node:m ~interval:i ~object_id:k)
            with
            | Some sv ->
              Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                [ (sv, 1.); (ov, -1.) ]
            | None -> ()
          done
        done
      end
    done;
  let problem = Lp.Problem.Builder.build b in
  {
    permission = perm;
    problem;
    kinds = Array.of_list (List.rev !kinds);
    objective_offset = !objective_offset;
    node_totals;
    always_covered;
  }

let store_placement t x =
  let spec = t.permission.Permission.spec in
  let nodes = Spec.node_count spec in
  let intervals = Spec.interval_count spec in
  let objects = Spec.object_count spec in
  let out =
    Array.init nodes (fun _ -> Array.make_matrix objects intervals 0.)
  in
  Array.iteri
    (fun j kind ->
      match kind with
      | Store { node; interval; object_id } ->
        out.(node).(object_id).(interval) <- x.(j)
      | Create _ | Covered _ | Route _ | Capacity _ | Replicas _
      | Open_node _ ->
        ())
    t.kinds;
  out

let var_count t = Lp.Problem.nvars t.problem
let row_count t = Lp.Problem.nrows t.problem

let pp_stats ppf t =
  Format.fprintf ppf "model: %d vars, %d rows, %d nnz (offset %.3g)"
    (var_count t) (row_count t) (Lp.Problem.nnz t.problem) t.objective_offset
