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

(* --- the blocks every relaxation shares -------------------------------- *)

type stores = {
  table : (int, int) Hashtbl.t;  (* packed (node, object, interval) -> var *)
  objects : int;
  intervals : int;
  object_set : int list;
  created : (int * var_kind) list;  (* creation order *)
}

let pack t ~node ~interval ~object_id =
  ((node * t.objects) + object_id) * t.intervals + interval

let store_var t ~node ~interval ~object_id =
  Hashtbl.find_opt t.table (pack t ~node ~interval ~object_id)

let created t = t.created

let add_stores b (perm : Permission.t) ~objects:object_set ~alpha ~delta =
  let spec = perm.spec in
  let demand = spec.demand in
  let costs = spec.costs in
  let intervals = Spec.interval_count spec in
  (* Total (weighted) write count per (object, interval), for the update
     cost extension (12). *)
  let write_totals =
    if delta && costs.Spec.delta > 0. then begin
      let w = Array.make_matrix (Spec.object_count spec) intervals 0. in
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
  let t =
    {
      table = Hashtbl.create (min 4096 (64 * List.length object_set));
      objects = Spec.object_count spec;
      intervals;
      object_set;
      created = [];
    }
  in
  let created = ref [] in
  let add_var kind ~obj =
    let v = Lp.Problem.Builder.add_var b ~lo:0. ~hi:1. ~obj () in
    created := (v, kind) :: !created;
    v
  in
  for node = 0 to Spec.node_count spec - 1 do
    if node <> spec.system.Topology.System.origin then
      List.iter
        (fun object_id ->
          let smask = perm.store_mask.(node).(object_id) in
          let w = demand.Workload.Demand.weight.(object_id) in
          let prev = ref None in
          for interval = 0 to intervals - 1 do
            if smask land (1 lsl interval) <> 0 then begin
              let price = if alpha then costs.Spec.alpha *. w else 0. in
              let price =
                match write_totals with
                | Some wt ->
                  price +. (costs.Spec.delta *. w *. wt.(object_id).(interval))
                | None -> price
              in
              let sv =
                add_var (Store { node; interval; object_id }) ~obj:price
              in
              Hashtbl.add t.table (pack t ~node ~interval ~object_id) sv;
              (* Continuity row (3)+(20): store_i <= store_(i-1) + create_i,
                 with the terms that exist, in ascending variable order. *)
              let row =
                match !prev with
                | Some pv -> [ (pv, -1.); (sv, 1.) ]
                | None -> [ (sv, 1.) ]
              in
              let row =
                if Permission.create_allowed perm ~node ~interval ~object_id
                then begin
                  let cv =
                    add_var
                      (Create { node; interval; object_id })
                      ~obj:(costs.Spec.beta *. w)
                  in
                  row @ [ (cv, -1.) ]
                end
                else row
              in
              Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0. row;
              prev := Some sv
            end
            else prev := None
          done)
        object_set
  done;
  { t with created = List.rev !created }

type covered = {
  var : int;
  node : int;
  interval : int;
  object_id : int;
  reads : float;
}

let add_coverage b (perm : Permission.t) stores ~penalty =
  let spec = perm.spec in
  let sys = spec.system in
  let weight = spec.demand.Workload.Demand.weight in
  let gamma = spec.costs.Spec.gamma in
  (* An uncovered read falls back to the origin and pays for the latency
     above the threshold (term (11), with the fallback route made
     explicit). *)
  let price n =
    match spec.goal with
    | Spec.Qos { tlat_ms; _ } when penalty && gamma > 0. ->
      Float.max 0. (sys.Topology.System.latency.(n).(sys.origin) -. tlat_ms)
      *. gamma
    | Spec.Qos _ | Spec.Avg_latency _ -> 0.
  in
  let offset = ref 0. and covered = ref [] in
  List.iter
    (fun object_id ->
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          let node = c.node and interval = c.interval in
          if not perm.origin_covered.(node) then begin
            let reads = weight.(object_id) *. c.count in
            (* Stores that can cover this read, descending. *)
            let covering = ref [] in
            for m = 0 to Array.length perm.reach - 1 do
              if perm.reach.(node).(m) then
                match store_var stores ~node:m ~interval ~object_id with
                | Some sv -> covering := sv :: !covering
                | None -> ()
            done;
            (* Uncoverable demand still pays the penalty. *)
            let pen = price node in
            if penalty then offset := !offset +. (reads *. pen);
            if !covering <> [] then begin
              let var =
                Lp.Problem.Builder.add_var b ~lo:0. ~hi:1.
                  ~obj:(if penalty then -.reads *. pen else 0.)
                  ()
              in
              Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                ((var, 1.) :: List.map (fun sv -> (sv, -1.)) !covering);
              covered := { var; node; interval; object_id; reads } :: !covered
            end
          end)
        spec.demand.Workload.Demand.reads.(object_id))
    stores.object_set;
  (List.rev !covered, !offset)

let always_covered (perm : Permission.t) =
  let spec = perm.spec in
  let always = Array.make (Spec.node_count spec) 0. in
  (match spec.goal with
  | Spec.Qos _ ->
    Array.iteri
      (fun k cells ->
        let w = spec.demand.Workload.Demand.weight.(k) in
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            if perm.origin_covered.(c.node) then
              always.(c.node) <- always.(c.node) +. (w *. c.count))
          cells)
      spec.demand.Workload.Demand.reads
  | Spec.Avg_latency _ -> ());
  always

(* Constraint (2), one row per user/node. Rows are emitted whenever the
   node has coverage options, even when trivially satisfied: the row set
   fixes presolve's reductions and PDHG's iterates, so every pinned bound
   depends on this rule. A node with no coverage options but a positive
   requirement gets an empty (infeasible) row, so the LP reports
   infeasibility rather than silently dropping the user. *)
let add_qos_rows b ~fraction ~node_totals ~always_covered covered =
  let terms = Array.make (Array.length node_totals) [] in
  List.iter
    (fun c -> terms.(c.node) <- (c.var, c.reads) :: terms.(c.node))
    covered;
  Array.iteri
    (fun n row ->
      let rhs = (fraction *. node_totals.(n)) -. always_covered.(n) in
      if row <> [] || rhs > 1e-9 then
        Lp.Problem.Builder.add_row b Lp.Problem.Ge ~rhs row)
    terms

(* --- the class LP ------------------------------------------------------ *)

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
  (* Storage cost carrier: under a storage or replica constraint the
     per-interval storage bill is alpha * capacity (equality-constrained
     heuristics always pay for the full fixed footprint), so the alpha
     coefficient moves from the store variables to the capacity/replica
     variables. *)
  let sc_active = cls.Classes.storage <> Classes.Sc_none in
  let rc_active = cls.Classes.replicas <> Classes.Rc_none in
  let stores =
    add_stores b perm
      ~objects:(List.init objects Fun.id)
      ~alpha:((not sc_active) && not rc_active)
      ~delta:true
  in
  let kinds = ref (List.rev_map snd stores.created) in
  let new_var kind ~lo ~hi ~obj () =
    let idx = Lp.Problem.Builder.add_var b ~lo ~hi ~obj () in
    kinds := kind :: !kinds;
    idx
  in
  (* Accumulators for the coupling rows built after variable creation. *)
  let sc_terms = Array.make_matrix nodes intervals [] in
  let rc_terms = Array.make_matrix objects intervals [] in
  let node_stores = Array.make nodes [] in
  List.iter
    (fun (sv, kind) ->
      match kind with
      | Store { node = m; interval = i; object_id = k } ->
        sc_terms.(m).(i) <- (sv, weight.(k)) :: sc_terms.(m).(i);
        rc_terms.(k).(i) <- (sv, 1.) :: rc_terms.(k).(i);
        node_stores.(m) <- sv :: node_stores.(m)
      | Create _ | Covered _ | Route _ | Capacity _ | Replicas _ | Open_node _
        ->
        ())
    stores.created;
  (* --- goal-specific variables and rows --------------------------------- *)
  let node_totals = Workload.Demand.node_read_totals demand in
  let always_covered = always_covered perm in
  let objective_offset =
    match spec.Spec.goal with
    | Spec.Qos { fraction; _ } ->
      let covered, offset = add_coverage b perm stores ~penalty:true in
      List.iter
        (fun c ->
          kinds :=
            Covered
              { node = c.node; interval = c.interval; object_id = c.object_id }
            :: !kinds)
        covered;
      add_qos_rows b ~fraction ~node_totals ~always_covered covered;
      offset
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
                if perm.Permission.reach.(n).(m) then begin
                  let store =
                    store_var stores ~node:m ~interval:i ~object_id:k
                  in
                  if m = origin || store <> None then begin
                    let rv =
                      new_var
                        (Route
                           {
                             node = n;
                             from_node = m;
                             interval = i;
                             object_id = k;
                           })
                        ~lo:0. ~hi:1. ~obj:0. ()
                    in
                    routes := (rv, 1.) :: !routes;
                    (* (9): route only to nodes that store the object. *)
                    Option.iter
                      (fun sv ->
                        Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                          [ (rv, 1.); (sv, -1.) ])
                      store;
                    avg_terms.(n) <-
                      (rv, rw *. sys.Topology.System.latency.(n).(m))
                      :: avg_terms.(n)
                  end
                end
              done;
              (* (8): each request is routed somewhere. *)
              Lp.Problem.Builder.add_row b Lp.Problem.Eq ~rhs:1. !routes)
            cells)
        demand.Workload.Demand.reads;
      (* (7): per-user average latency bound. *)
      for n = 0 to nodes - 1 do
        if node_totals.(n) > 0. && avg_terms.(n) <> [] then
          Lp.Problem.Builder.add_row b Lp.Problem.Le
            ~rhs:(tavg_ms *. node_totals.(n))
            avg_terms.(n)
      done;
      0.
  in
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
      if node_stores.(m) <> [] then begin
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
      if node_stores.(m) <> [] then begin
        let ov =
          new_var (Open_node { node = m }) ~lo:0. ~hi:1. ~obj:costs.Spec.zeta ()
        in
        List.iter
          (fun sv ->
            Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
              [ (sv, 1.); (ov, -1.) ])
          (List.rev node_stores.(m))
      end
    done;
  let problem = Lp.Problem.Builder.build b in
  {
    permission = perm;
    problem;
    kinds = Array.of_list (List.rev !kinds);
    objective_offset;
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

let pp_stats ppf t =
  Format.fprintf ppf "model: %d vars, %d rows, %d nnz (offset %.3g)"
    (Lp.Problem.nvars t.problem) (Lp.Problem.nrows t.problem)
    (Lp.Problem.nnz t.problem) t.objective_offset
