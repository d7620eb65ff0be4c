type t = {
  spec : Spec.t;
  cls : Classes.t;
  placeable : bool array;
  reach : bool array array;
  know : bool array array;
  origin_covered : bool array;
  create_mask : int array array;
  store_mask : int array array;
}

let interval_bits i =
  if i < 0 || i > 62 then invalid_arg "Permission.interval_bits";
  if i = 62 then -1 lsr 1 else (1 lsl i) - 1

(* OR of [mask lsl d] for d in [d0, d1], i.e. an access at interval j
   permits intervals j+d0 .. j+d1. *)
let smear mask ~d0 ~d1 ~bits =
  let acc = ref 0 in
  for d = d0 to d1 do
    acc := !acc lor (mask lsl d)
  done;
  !acc land bits

let prefix_or mask ~intervals =
  let acc = ref mask in
  let shift = ref 1 in
  while !shift < intervals do
    acc := !acc lor (!acc lsl !shift);
    shift := !shift * 2
  done;
  !acc land interval_bits intervals

(* The dense sphere masks of a custom knowledge matrix: [sphere.(m).(k)]
   is the union of the access masks of [k] over [m]'s sphere, and
   [multi.(m).(k)] (only built when [multi_needed]) the intervals where
   that sphere saw at least two accesses. O(N^2 * K); nothing in the
   library builds such a matrix, so it keeps the plain triple loops. *)
let dense_spheres (spec : Spec.t) know ~multi_needed =
  let nodes = Spec.node_count spec in
  let intervals = Spec.interval_count spec in
  let objects = Spec.object_count spec in
  let reads = spec.demand.Workload.Demand.reads in
  let access = Array.make_matrix nodes objects 0 in
  Array.iteri
    (fun k cells ->
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          access.(c.node).(k) <- access.(c.node).(k) lor (1 lsl c.interval))
        cells)
    reads;
  let sphere = Array.make_matrix nodes objects 0 in
  for m = 0 to nodes - 1 do
    for v = 0 to nodes - 1 do
      if know.(m).(v) then
        for k = 0 to objects - 1 do
          sphere.(m).(k) <- sphere.(m).(k) lor access.(v).(k)
        done
    done
  done;
  let multi =
    if not multi_needed then [||]
    else begin
      let counts = Array.make_matrix nodes objects [||] in
      for n = 0 to nodes - 1 do
        for k = 0 to objects - 1 do
          counts.(n).(k) <- Array.make intervals 0.
        done
      done;
      Array.iteri
        (fun k cells ->
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              counts.(c.node).(k).(c.interval) <-
                counts.(c.node).(k).(c.interval) +. c.count)
            cells)
        reads;
      let multi = Array.make_matrix nodes objects 0 in
      for m = 0 to nodes - 1 do
        for k = 0 to objects - 1 do
          for i = 0 to intervals - 1 do
            let total = ref 0. in
            for v = 0 to nodes - 1 do
              if know.(m).(v) then total := !total +. counts.(v).(k).(i)
            done;
            if !total >= 2. then multi.(m).(k) <- multi.(m).(k) lor (1 lsl i)
          done
        done
      done;
      multi
    end
  in
  (sphere, multi)

let covering_of reach =
  Array.map
    (fun row ->
      let ms = ref [] in
      for m = Array.length row - 1 downto 0 do
        if row.(m) then ms := m :: !ms
      done;
      Array.of_list !ms)
    reach

let compute ?placeable (spec : Spec.t) (cls : Classes.t) =
  let sys = spec.system in
  let nodes = Spec.node_count spec in
  let placeable =
    match placeable with
    | None -> Array.make nodes true
    | Some p ->
      if Array.length p <> nodes then
        invalid_arg "Permission.compute: placeable length must equal node count";
      p
  in
  let intervals = Spec.interval_count spec in
  let objects = Spec.object_count spec in
  let bits = interval_bits intervals in
  (* For a QoS goal, a replica helps node n only when it is both routable
     and within the latency threshold. For an average-latency goal there is
     no hard threshold: any routable replica can lower the average. *)
  let reach =
    match spec.goal with
    | Spec.Qos { tlat_ms; _ } ->
      Topology.System.effective_reach sys ~tlat:tlat_ms cls.routing
    | Spec.Avg_latency _ -> Topology.System.fetch_matrix sys cls.routing
  in
  let know = Topology.System.know_matrix sys cls.knowledge in
  let origin = sys.origin in
  let origin_covered = Array.init nodes (fun n -> reach.(n).(origin)) in
  let placeable = Array.mapi (fun m p -> p && m <> origin) placeable in
  (* A window of no intervals is an error whenever some pair could be
     placed, whether or not any read reaches it. *)
  (match cls.history with
  | Classes.Window w when w < 1 && objects > 0 && Array.exists Fun.id placeable
    ->
    invalid_arg "Permission.compute: window must be >= 1"
  | Classes.Window _ | Classes.All_intervals -> ());
  (* Intervals a creation may happen in, given the sphere's access mask. *)
  let permitted_by sphere =
    match (cls.history, cls.timing) with
    | Classes.All_intervals, Classes.Proactive -> prefix_or sphere ~intervals
    | Classes.All_intervals, Classes.Reactive ->
      prefix_or sphere ~intervals lsl 1 land bits
    | Classes.Window w, Classes.Proactive ->
      smear sphere ~d0:0 ~d1:(w - 1) ~bits
    | Classes.Window w, Classes.Reactive -> smear sphere ~d0:1 ~d1:w ~bits
  in
  (* Per-access refinement (Theorem 3): intervals where the sphere sees at
     least two accesses, so a per-access reactive heuristic has already
     reacted to the first by the time the later ones arrive. Only read
     when the class opts in. *)
  let multi_needed = cls.intra_interval && cls.timing = Classes.Reactive in
  let dense_sphere, dense_multi =
    match cls.knowledge with
    | Topology.System.Know_custom _ -> dense_spheres spec know ~multi_needed
    | Topology.System.Know_global | Topology.System.Know_local -> ([||], [||])
  in
  (* Reads this node's replica could usefully cover. Under a QoS goal,
     reads from origin-covered nodes are already served within the
     threshold and never need placement; under an average-latency goal
     every read can still benefit from a closer replica. *)
  let needs_placement =
    match spec.goal with
    | Spec.Qos _ -> fun n -> not origin_covered.(n)
    | Spec.Avg_latency _ -> fun _ -> true
  in
  let covering = covering_of reach in
  (* Per-object scratch, each entry reset before the next object:
     [last_coverable.(m)] is the last interval with a read [m] could
     cover (-1 for none), [touched] lists the nodes where it is set,
     [own]/[own_multi] are a node's own access masks (the sphere under
     [Know_local]) and [totals] the per-interval read counts (under
     [Know_global]). A pair no read can reach keeps all-zero masks, so
     only the reachable pairs are visited. *)
  let last_coverable = Array.make nodes (-1) in
  let touched = Array.make nodes 0 in
  let own = Array.make nodes 0 and own_multi = Array.make nodes 0 in
  let totals = Array.make intervals 0. in
  let create_mask = Array.make_matrix nodes objects 0 in
  let store_mask = Array.make_matrix nodes objects 0 in
  let reads = spec.demand.Workload.Demand.reads in
  for k = 0 to objects - 1 do
    let cells = reads.(k) in
    let ntouched = ref 0 in
    for ci = 0 to Array.length cells - 1 do
      let c = cells.(ci) in
      if needs_placement c.node then begin
        let cov = covering.(c.node) in
        for q = 0 to Array.length cov - 1 do
          let m = cov.(q) in
          let lc = last_coverable.(m) in
          if lc < 0 then begin
            touched.(!ntouched) <- m;
            incr ntouched
          end;
          if c.interval > lc then last_coverable.(m) <- c.interval
        done
      end
    done;
    if !ntouched > 0 then begin
      (* Under [Know_global] every sphere is the whole system: one union
         over the object's cells serves every node, and the per-interval
         totals are sums over the (unique, node-ascending) cells. Under
         [Know_local] cells are unique per (interval, node), so the
         sphere sees two accesses iff one cell carries count >= 2. *)
      let union = ref 0 and twice = ref 0 in
      (match cls.knowledge with
      | Topology.System.Know_global ->
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            union := !union lor (1 lsl c.interval))
          cells;
        if multi_needed then begin
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              totals.(c.interval) <- totals.(c.interval) +. c.count)
            cells;
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              if totals.(c.interval) >= 2. then
                twice := !twice lor (1 lsl c.interval))
            cells;
          Array.iter
            (fun (c : Workload.Demand.cell) -> totals.(c.interval) <- 0.)
            cells
        end
      | Topology.System.Know_local ->
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            own.(c.node) <- own.(c.node) lor (1 lsl c.interval);
            if c.count >= 2. then
              own_multi.(c.node) <- own_multi.(c.node) lor (1 lsl c.interval))
          cells
      | Topology.System.Know_custom _ -> ());
      for t = 0 to !ntouched - 1 do
        let m = touched.(t) in
        let lc = last_coverable.(m) in
        last_coverable.(m) <- -1;
        if placeable.(m) then begin
          let permitted =
            permitted_by
              (match cls.knowledge with
              | Topology.System.Know_global -> !union
              | Topology.System.Know_local -> own.(m)
              | Topology.System.Know_custom _ -> dense_sphere.(m).(k))
          in
          let permitted =
            if not multi_needed then permitted
            else
              permitted
              lor
              match cls.knowledge with
              | Topology.System.Know_global -> !twice
              | Topology.System.Know_local -> own_multi.(m)
              | Topology.System.Know_custom _ -> dense_multi.(m).(k)
          in
          let useful = interval_bits (lc + 1) in
          let create = permitted land useful in
          create_mask.(m).(k) <- create;
          store_mask.(m).(k) <- prefix_or create ~intervals land useful
        end
      done;
      match cls.knowledge with
      | Topology.System.Know_local ->
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            own.(c.node) <- 0;
            own_multi.(c.node) <- 0)
          cells
      | Topology.System.Know_global | Topology.System.Know_custom _ -> ()
    end
  done;
  { spec; cls; placeable; reach; know; origin_covered; create_mask; store_mask }

(* The reach matrix depends on the goal only through [tlat_ms], and the
   masks never read the target fraction, so re-targeting a QoS analysis is
   a pure record update — [compute] at the new fraction would rebuild the
   exact same matrices. *)
let with_fraction t fraction =
  match t.spec.Spec.goal with
  | Spec.Qos { tlat_ms; _ } ->
    { t with
      spec = { t.spec with goal = Spec.Qos { tlat_ms; fraction } } }
  | Spec.Avg_latency _ ->
    invalid_arg "Permission.with_fraction: requires a QoS goal"

let covering t = covering_of t.reach

let create_allowed t ~node ~interval ~object_id =
  t.create_mask.(node).(object_id) land (1 lsl interval) <> 0

let store_possible t ~node ~interval ~object_id =
  t.store_mask.(node).(object_id) land (1 lsl interval) <> 0

let covered_possible t ~node ~interval ~object_id =
  t.origin_covered.(node)
  ||
  let nodes = Array.length t.reach in
  let rec scan m =
    if m >= nodes then false
    else if
      t.reach.(node).(m)
      && t.store_mask.(m).(object_id) land (1 lsl interval) <> 0
    then true
    else scan (m + 1)
  in
  scan 0

let max_feasible_qos t =
  let spec = t.spec in
  let nodes = Spec.node_count spec in
  let covered = Array.make nodes 0. in
  let totals = Workload.Demand.node_read_totals spec.demand in
  Array.iteri
    (fun k cells ->
      let w = spec.demand.Workload.Demand.weight.(k) in
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          if covered_possible t ~node:c.node ~interval:c.interval ~object_id:k
          then covered.(c.node) <- covered.(c.node) +. (c.count *. w))
        cells)
    spec.demand.Workload.Demand.reads;
  Array.init nodes (fun n ->
      if totals.(n) <= 0. then 1. else covered.(n) /. totals.(n))

let feasible t =
  let spec = t.spec in
  match spec.goal with
  | Spec.Qos { fraction; _ } ->
    Array.for_all
      (fun q -> q >= fraction -. 1e-12)
      (max_feasible_qos t)
  | Spec.Avg_latency { tavg_ms } ->
    (* Best case: every read is served from the closest node that could
       possibly store the object at that time (or the origin). *)
    let sys = spec.system in
    let nodes = Spec.node_count spec in
    let latency_sum = Array.make nodes 0. in
    let totals = Workload.Demand.node_read_totals spec.demand in
    Array.iteri
      (fun k cells ->
        let w = spec.demand.Workload.Demand.weight.(k) in
        Array.iter
          (fun (c : Workload.Demand.cell) ->
            let best = ref sys.latency.(c.node).(sys.origin) in
            for m = 0 to nodes - 1 do
              if
                t.store_mask.(m).(k) land (1 lsl c.interval) <> 0
                && sys.latency.(c.node).(m) < !best
              then best := sys.latency.(c.node).(m)
            done;
            latency_sum.(c.node) <-
              latency_sum.(c.node) +. (!best *. c.count *. w))
          cells)
      spec.demand.Workload.Demand.reads;
    let ok = ref true in
    for n = 0 to nodes - 1 do
      if totals.(n) > 0. && latency_sum.(n) /. totals.(n) > tavg_ms +. 1e-9
      then ok := false
    done;
    !ok
