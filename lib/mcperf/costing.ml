type placement = int array array

let empty_placement spec =
  Array.make_matrix (Spec.node_count spec) (Spec.object_count spec) 0

type evaluation = {
  storage : float;
  creation : float;
  sc_padding : float;
  rc_padding : float;
  write_cost : float;
  penalty : float;
  open_cost : float;
  total : float;
  qos : float array;
  avg_latency : float array;
  meets_goal : bool;
}

let popcount mask =
  let rec loop m acc = if m = 0 then acc else loop (m land (m - 1)) (acc + 1) in
  loop mask 0

(* Number of 0->1 transitions, counting bit 0 (constraint (4): the system
   starts empty, so storing in interval 0 is a creation). *)
let creations mask = popcount (mask land lnot (mask lsl 1))

let evaluate (perm : Permission.t) (placement : placement) =
  let spec = perm.Permission.spec in
  let cls = perm.Permission.cls in
  let sys = spec.Spec.system in
  let demand = spec.Spec.demand in
  let nodes = Spec.node_count spec in
  let intervals = Spec.interval_count spec in
  let objects = Spec.object_count spec in
  let origin = sys.Topology.System.origin in
  let weight = demand.Workload.Demand.weight in
  let costs = spec.Spec.costs in
  if
    Array.length placement <> nodes
    || Array.exists (fun row -> Array.length row <> objects) placement
  then invalid_arg "Costing.evaluate: placement has wrong dimensions";
  (* Raw storage and creation. *)
  let storage = ref 0. and creation = ref 0. in
  for m = 0 to nodes - 1 do
    if m <> origin then
      for k = 0 to objects - 1 do
        let mask = placement.(m).(k) in
        if mask <> 0 then begin
          storage :=
            !storage +. (costs.Spec.alpha *. weight.(k) *. float_of_int (popcount mask));
          creation :=
            !creation
            +. (costs.Spec.beta *. weight.(k) *. float_of_int (creations mask))
        end
      done
  done;
  (* Footprints for the SC / RC padding. used.(m).(i) counts weighted
     objects on node m during interval i; reps.(k).(i) counts replicas. *)
  let used = Array.make_matrix nodes intervals 0. in
  let reps = Array.make_matrix objects intervals 0. in
  for m = 0 to nodes - 1 do
    if m <> origin then
      for k = 0 to objects - 1 do
        let mask = placement.(m).(k) in
        if mask <> 0 then
          for i = 0 to intervals - 1 do
            if mask land (1 lsl i) <> 0 then begin
              used.(m).(i) <- used.(m).(i) +. weight.(k);
              reps.(k).(i) <- reps.(k).(i) +. 1.
            end
          done
      done
  done;
  let sc_padding =
    match cls.Classes.storage with
    | Classes.Sc_none -> 0.
    | Classes.Sc_uniform | Classes.Sc_per_node ->
      let node_max =
        Array.init nodes (fun m ->
            if m = origin then 0.
            else Array.fold_left Float.max 0. used.(m))
      in
      let cmax = Array.fold_left Float.max 0. node_max in
      let acc = ref 0. in
      for m = 0 to nodes - 1 do
        if m <> origin && perm.Permission.placeable.(m) then begin
          let target =
            match cls.Classes.storage with
            | Classes.Sc_uniform -> cmax
            | Classes.Sc_per_node | Classes.Sc_none -> node_max.(m)
          in
          for i = 0 to intervals - 1 do
            acc := !acc +. (costs.Spec.alpha *. (target -. used.(m).(i)))
          done;
          (* Creating the padding replicas once (Figure 5's beta term;
             zero for the per-node variant where target = node_max). *)
          acc := !acc +. (costs.Spec.beta *. (target -. node_max.(m)))
        end
      done;
      !acc
  in
  let rc_padding =
    match cls.Classes.replicas with
    | Classes.Rc_none -> 0.
    | Classes.Rc_uniform | Classes.Rc_per_object ->
      let object_max =
        Array.init objects (fun k -> Array.fold_left Float.max 0. reps.(k))
      in
      let rmax = Array.fold_left Float.max 0. object_max in
      let acc = ref 0. in
      for k = 0 to objects - 1 do
        let target =
          match cls.Classes.replicas with
          | Classes.Rc_uniform -> rmax
          | Classes.Rc_per_object | Classes.Rc_none -> object_max.(k)
        in
        for i = 0 to intervals - 1 do
          acc :=
            !acc +. (costs.Spec.alpha *. weight.(k) *. (target -. reps.(k).(i)))
        done;
        acc :=
          !acc +. (costs.Spec.beta *. weight.(k) *. (target -. object_max.(k)))
      done;
      !acc
  in
  (* Update messages: each write touches every replica (term (12)). *)
  let write_cost =
    if costs.Spec.delta <= 0. then 0.
    else begin
      let acc = ref 0. in
      Array.iteri
        (fun k cells ->
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              acc :=
                !acc
                +. costs.Spec.delta *. weight.(k) *. c.count
                   *. reps.(k).(c.interval))
            cells)
        demand.Workload.Demand.writes;
      !acc
    end
  in
  (* Coverage, penalty, QoS and average latency, per read cell. *)
  let tlat =
    match spec.Spec.goal with
    | Spec.Qos { tlat_ms; _ } -> tlat_ms
    | Spec.Avg_latency _ -> infinity
  in
  let covered_demand = Array.make nodes 0. in
  let latency_sum = Array.make nodes 0. in
  let node_totals = Workload.Demand.node_read_totals demand in
  let penalty = ref 0. in
  Array.iteri
    (fun k cells ->
      let w = weight.(k) in
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          let n = c.node and i = c.interval in
          let rw = w *. c.count in
          (* Closest routable replica (origin included). *)
          let best = ref sys.Topology.System.latency.(n).(origin) in
          for m = 0 to nodes - 1 do
            if
              m <> origin
              && perm.Permission.reach.(n).(m)
              && placement.(m).(k) land (1 lsl i) <> 0
              && sys.Topology.System.latency.(n).(m) < !best
            then best := sys.Topology.System.latency.(n).(m)
          done;
          latency_sum.(n) <- latency_sum.(n) +. (!best *. rw);
          if !best <= tlat then
            covered_demand.(n) <- covered_demand.(n) +. rw
          else if costs.Spec.gamma > 0. then
            penalty := !penalty +. (costs.Spec.gamma *. (!best -. tlat) *. rw))
        cells)
    demand.Workload.Demand.reads;
  let qos =
    Array.init nodes (fun n ->
        if node_totals.(n) <= 0. then 1.
        else covered_demand.(n) /. node_totals.(n))
  in
  let avg_latency =
    Array.init nodes (fun n ->
        if node_totals.(n) <= 0. then 0. else latency_sum.(n) /. node_totals.(n))
  in
  let open_cost =
    if costs.Spec.zeta <= 0. then 0.
    else begin
      let count = ref 0 in
      for m = 0 to nodes - 1 do
        if m <> origin && Array.exists (fun mask -> mask <> 0) placement.(m)
        then incr count
      done;
      costs.Spec.zeta *. float_of_int !count
    end
  in
  let meets_goal =
    match spec.Spec.goal with
    | Spec.Qos { fraction; _ } ->
      Array.for_all (fun q -> q >= fraction -. 1e-9) qos
    | Spec.Avg_latency { tavg_ms } ->
      Array.for_all (fun l -> l <= tavg_ms +. 1e-9) avg_latency
  in
  let total =
    !storage +. !creation +. sc_padding +. rc_padding +. write_cost
    +. !penalty +. open_cost
  in
  {
    storage = !storage;
    creation = !creation;
    sc_padding;
    rc_padding;
    write_cost;
    penalty = !penalty;
    open_cost;
    total;
    qos;
    avg_latency;
    meets_goal;
  }

let respects_permissions (perm : Permission.t) placement =
  let spec = perm.Permission.spec in
  let nodes = Spec.node_count spec in
  let objects = Spec.object_count spec in
  let origin = spec.Spec.system.Topology.System.origin in
  let ok = ref true in
  for m = 0 to nodes - 1 do
    for k = 0 to objects - 1 do
      let mask = placement.(m).(k) in
      if mask <> 0 then begin
        if m = origin then ok := false
        else begin
          if mask land lnot perm.Permission.store_mask.(m).(k) <> 0 then
            ok := false;
          let starts = mask land lnot (mask lsl 1) in
          if starts land lnot perm.Permission.create_mask.(m).(k) <> 0 then
            ok := false
        end
      end
    done
  done;
  !ok
