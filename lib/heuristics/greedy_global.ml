(* Per-interval greedy filling. For interval i the marginal gain of
   placing object k on node m is the still-uncovered weighted demand for k
   within m's coverage; the score divides by storage (and, for fresh
   placements, creation) cost. Gains only shrink as placements are made —
   the objective is submodular — so the classic lazy-greedy evaluation
   applies: candidates sit in a max-heap keyed by their last known score
   and are re-scored only when popped. *)

let place ~(perm : Mcperf.Permission.t) ~capacity () =
  if capacity < 0. then invalid_arg "Greedy_global.place: negative capacity";
  let spec = perm.Mcperf.Permission.spec in
  let demand = spec.Mcperf.Spec.demand in
  let nodes = Mcperf.Spec.node_count spec in
  let intervals = Mcperf.Spec.interval_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let origin = spec.Mcperf.Spec.system.Topology.System.origin in
  let weight = demand.Workload.Demand.weight in
  let costs = spec.Mcperf.Spec.costs in
  let placement = Mcperf.Costing.empty_placement spec in
  (* Reads per (interval, object): list of (reader node, weighted count),
     origin-served demand excluded. *)
  let cells_at = Array.init intervals (fun _ -> Array.make objects []) in
  Array.iteri
    (fun k kcells ->
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          if not perm.Mcperf.Permission.origin_covered.(c.node) then
            cells_at.(c.interval).(k) <-
              (c.node, c.count *. weight.(k)) :: cells_at.(c.interval).(k))
        kcells)
    demand.Workload.Demand.reads;
  for i = 0 to intervals - 1 do
    (* Uncovered demand per (object, reader node) for this interval. *)
    let uncovered = Array.make objects [||] in
    let remaining = Array.make objects 0. in
    Array.iteri
      (fun k readers ->
        if readers <> [] then begin
          let per_node = Array.make nodes 0. in
          List.iter
            (fun (n, rw) ->
              per_node.(n) <- per_node.(n) +. rw;
              remaining.(k) <- remaining.(k) +. rw)
            readers;
          uncovered.(k) <- per_node
        end)
      cells_at.(i);
    let gain m k =
      if remaining.(k) <= 0. then 0.
      else begin
        let acc = ref 0. in
        let per_node = uncovered.(k) in
        for n = 0 to nodes - 1 do
          if per_node.(n) > 0. && perm.Mcperf.Permission.reach.(n).(m) then
            acc := !acc +. per_node.(n)
        done;
        !acc
      end
    in
    let unit_cost m k =
      let kept = i > 0 && placement.(m).(k) land (1 lsl (i - 1)) <> 0 in
      ignore m;
      (costs.Mcperf.Spec.alpha *. weight.(k))
      +. (if kept then 0. else costs.Mcperf.Spec.beta *. weight.(k))
    in
    let score m k = gain m k /. Float.max (unit_cost m k) 1e-9 in
    let capacity_left = Array.make nodes capacity in
    (* Max-heap via negated scores. *)
    let heap = Util.Pqueue.create ~capacity:1024 () in
    for m = 0 to nodes - 1 do
      if m <> origin then
        for k = 0 to objects - 1 do
          if
            remaining.(k) > 0.
            && weight.(k) <= capacity
            && Mcperf.Permission.store_possible perm ~node:m ~interval:i
                 ~object_id:k
          then begin
            let s = score m k in
            if s > 0. then Util.Pqueue.push heap (-.s) (m, k)
          end
        done
    done;
    let continue_greedy = ref true in
    while !continue_greedy do
      match Util.Pqueue.pop_min heap with
      | None -> continue_greedy := false
      | Some (neg_key, (m, k)) ->
        if capacity_left.(m) >= weight.(k) && placement.(m).(k) land (1 lsl i) = 0
        then begin
          let s = score m k in
          if s <= 0. then ()
          else begin
            let next_best =
              match Util.Pqueue.peek_min heap with
              | Some (nk, _) -> -.nk
              | None -> 0.
            in
            if s >= next_best -. 1e-12 then begin
              (* Still the best: place it. *)
              capacity_left.(m) <- capacity_left.(m) -. weight.(k);
              placement.(m).(k) <- placement.(m).(k) lor (1 lsl i);
              let per_node = uncovered.(k) in
              for n = 0 to nodes - 1 do
                if per_node.(n) > 0. && perm.Mcperf.Permission.reach.(n).(m)
                then begin
                  remaining.(k) <- remaining.(k) -. per_node.(n);
                  per_node.(n) <- 0.
                end
              done
            end
            else
              (* Stale score: reinsert with the fresh value. *)
              Util.Pqueue.push heap (-.s) (m, k)
          end;
          ignore neg_key
        end
    done
  done;
  placement

let strategy =
  Strategy.of_placement_rule ~name:"greedy-global"
    ~heuristic_class:Mcperf.Classes.storage_constrained
    ~place:(fun perm ~parameter ->
      place ~perm ~capacity:(float_of_int parameter) ())
    ~ceiling:(fun (perm : Mcperf.Permission.t) ->
      let spec = perm.Mcperf.Permission.spec in
      int_of_float
        (Float.ceil
           (Util.Vecops.sum spec.Mcperf.Spec.demand.Workload.Demand.weight)))
