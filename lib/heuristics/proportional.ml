(* Demand-proportional placement. Site scores are subtree demand on
   trees (accumulated leaf-up over a BFS order from the origin) and local
   demand otherwise; the object split is a largest-remainder rounding of
   the weighted read shares. Everything is deterministic — ties go to the
   lower id — so the validate harness can diff runs byte-for-byte. *)

(* Per-object weighted demand at each node, plus the per-object totals. *)
let weighted_demand spec =
  let demand = spec.Mcperf.Spec.demand in
  let nodes = Mcperf.Spec.node_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let weight = demand.Workload.Demand.weight in
  let per_node = Array.make_matrix objects nodes 0. in
  let totals = Array.make objects 0. in
  Array.iteri
    (fun k kcells ->
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          let w = weight.(k) *. c.count in
          per_node.(k).(c.node) <- per_node.(k).(c.node) +. w;
          totals.(k) <- totals.(k) +. w)
        kcells)
    demand.Workload.Demand.reads;
  (per_node, totals)

(* On a tree rooted at the origin, fold each node's demand into its
   ancestors so a site's score is everything hanging below it. The BFS
   order from the root visits parents before children, so one reverse
   scan accumulates leaf-up. *)
let subtree_scores sys per_node =
  let g = sys.Topology.System.graph in
  let nodes = Topology.Graph.node_count g in
  if not (Topology.Graph.is_tree g) then per_node
  else begin
    let root = sys.Topology.System.origin in
    let parent = Array.make nodes (-1) in
    let order = Array.make nodes root in
    let seen = Array.make nodes false in
    seen.(root) <- true;
    let head = ref 0 and tail = ref 0 in
    order.(!tail) <- root;
    incr tail;
    while !head < !tail do
      let u = order.(!head) in
      incr head;
      List.iter
        (fun (v, _) ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- u;
            order.(!tail) <- v;
            incr tail
          end)
        (Topology.Graph.neighbors g u)
    done;
    let scores = Array.map Array.copy per_node in
    Array.iter
      (fun row ->
        for i = nodes - 1 downto 1 do
          let v = order.(i) in
          row.(parent.(v)) <- row.(parent.(v)) +. row.(v)
        done)
      scores;
    scores
  end

(* Largest-remainder split of [total] across the demanded objects,
   proportional to [totals]; every demanded object gets at least one when
   the budget covers them all, otherwise the heaviest objects win. *)
let split_budget ~totals ~total =
  let objects = Array.length totals in
  let quota = Array.make objects 0 in
  let demanded =
    Array.to_list (Array.init objects Fun.id)
    |> List.filter (fun k -> totals.(k) > 0.)
  in
  let count = List.length demanded in
  if count = 0 || total <= 0 then quota
  else begin
    let sum = List.fold_left (fun acc k -> acc +. totals.(k)) 0. demanded in
    if total < count then begin
      (* Not enough for one each: heaviest objects first. *)
      let ranked =
        List.sort
          (fun a b ->
            if totals.(a) <> totals.(b) then compare totals.(b) totals.(a)
            else compare a b)
          demanded
      in
      List.iteri (fun i k -> if i < total then quota.(k) <- 1) ranked;
      quota
    end
    else begin
      let spare = total - count in
      let frac = Array.make objects 0. in
      List.iter
        (fun k ->
          let ideal = float_of_int spare *. totals.(k) /. sum in
          quota.(k) <- 1 + int_of_float ideal;
          frac.(k) <- ideal -. Float.of_int (int_of_float ideal))
        demanded;
      let assigned = List.fold_left (fun acc k -> acc + quota.(k)) 0 demanded in
      let ranked =
        List.sort
          (fun a b ->
            if frac.(a) <> frac.(b) then compare frac.(b) frac.(a)
            else compare a b)
          demanded
      in
      List.iteri
        (fun i k -> if i < total - assigned then quota.(k) <- quota.(k) + 1)
        ranked;
      quota
    end
  end

(* [place ~perm ~total_replicas ()] splits [total_replicas] across the
   objects with demand (largest-remainder rounding of the weighted read
   shares, at least one replica per demanded object when the budget
   allows; with fewer replicas than demanded objects, the heaviest
   objects win) and places each object's quota at its highest-scoring
   permitted sites. A quota exceeding an object's permitted-site pool is
   clamped and the surplus re-dealt to demanded objects with room left,
   heaviest first, so a budget equal to the total pool saturates every
   site. Deterministic: ties break towards lower node and object ids. *)
let place ~(perm : Mcperf.Permission.t) ~total_replicas () =
  if total_replicas < 0 then
    invalid_arg "Proportional.place: negative total_replicas";
  let spec = perm.Mcperf.Permission.spec in
  let nodes = Mcperf.Spec.node_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let intervals = Mcperf.Spec.interval_count spec in
  let full_mask = Mcperf.Permission.interval_bits intervals in
  let per_node, totals = weighted_demand spec in
  let scores = subtree_scores spec.Mcperf.Spec.system per_node in
  let quota = split_budget ~totals ~total:total_replicas in
  let candidates =
    Array.init objects (fun k ->
        let sites = ref [] in
        for m = nodes - 1 downto 0 do
          if perm.Mcperf.Permission.store_mask.(m).(k) <> 0 then
            sites := m :: !sites
        done;
        !sites)
  in
  (* The proportional split is blind to how many sites each object may
     actually use, so a quota can overshoot one object's pool while
     another object starves. Clamp each quota to its pool and hand the
     surplus to demanded objects with room left (heaviest first), so the
     cap budget saturates every pool instead of wasting replicas. *)
  let pool = Array.map List.length candidates in
  let surplus = ref 0 in
  Array.iteri
    (fun k q ->
      if q > pool.(k) then begin
        surplus := !surplus + (q - pool.(k));
        quota.(k) <- pool.(k)
      end)
    quota;
  let order =
    Array.to_list (Array.init objects Fun.id)
    |> List.filter (fun k -> totals.(k) > 0.)
    |> List.sort (fun a b ->
           if totals.(a) <> totals.(b) then compare totals.(b) totals.(a)
           else compare a b)
  in
  let progress = ref true in
  while !surplus > 0 && !progress do
    progress := false;
    List.iter
      (fun k ->
        if !surplus > 0 && quota.(k) < pool.(k) then begin
          quota.(k) <- quota.(k) + 1;
          decr surplus;
          progress := true
        end)
      order
  done;
  let placement = Mcperf.Costing.empty_placement spec in
  for k = 0 to objects - 1 do
    if quota.(k) > 0 then begin
      let ranked =
        List.sort
          (fun a b ->
            if scores.(k).(a) <> scores.(k).(b) then
              compare scores.(k).(b) scores.(k).(a)
            else compare a b)
          candidates.(k)
      in
      List.iteri
        (fun i m -> if i < quota.(k) then placement.(m).(k) <- full_mask)
        ranked
    end
  done;
  placement

let budget_ceiling (perm : Mcperf.Permission.t) =
  let spec = perm.Mcperf.Permission.spec in
  let nodes = Mcperf.Spec.node_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let _, totals = weighted_demand spec in
  let sites k =
    let n = ref 0 in
    for m = 0 to nodes - 1 do
      if perm.Mcperf.Permission.store_mask.(m).(k) <> 0 then incr n
    done;
    !n
  in
  let cap = ref 0 in
  for k = 0 to objects - 1 do
    if totals.(k) > 0. then cap := !cap + sites k
  done;
  !cap

let strategy =
  Strategy.of_placement_rule ~name:"proportional"
    ~heuristic_class:Mcperf.Classes.general
    ~place:(fun perm ~parameter -> place ~perm ~total_replicas:parameter ())
    ~ceiling:budget_ceiling
