let place ~(perm : Mcperf.Permission.t) ~replicas () =
  if replicas < 0 then invalid_arg "Greedy_replica.place: negative replicas";
  let spec = perm.Mcperf.Permission.spec in
  let demand = spec.Mcperf.Spec.demand in
  let nodes = Mcperf.Spec.node_count spec in
  let intervals = Mcperf.Spec.interval_count spec in
  let origin = spec.Mcperf.Spec.system.Topology.System.origin in
  let weight = demand.Workload.Demand.weight in
  let full_mask = Mcperf.Permission.interval_bits intervals in
  let placement = Mcperf.Costing.empty_placement spec in
  Array.iteri
    (fun k kcells ->
      (* Demand per reader node for this object (excluding demand the
         origin already serves in time). *)
      let reader_demand = Array.make nodes 0. in
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          if not perm.Mcperf.Permission.origin_covered.(c.node) then
            reader_demand.(c.node) <-
              reader_demand.(c.node) +. (c.count *. weight.(k)))
        kcells;
      let covered = Array.make nodes false in
      let chosen = ref 0 in
      let continue_greedy = ref true in
      while !chosen < replicas && !continue_greedy do
        let best = ref None in
        for m = 0 to nodes - 1 do
          if m <> origin && placement.(m).(k) = 0
             && perm.Mcperf.Permission.store_mask.(m).(k) <> 0
          then begin
            let g = ref 0. in
            for n = 0 to nodes - 1 do
              if
                (not covered.(n))
                && reader_demand.(n) > 0.
                && perm.Mcperf.Permission.reach.(n).(m)
              then g := !g +. reader_demand.(n)
            done;
            if !g > 0. then
              match !best with
              | Some (_, g') when g' >= !g -> ()
              | _ -> best := Some (m, !g)
          end
        done;
        match !best with
        | None -> continue_greedy := false
        | Some (m, _) ->
          placement.(m).(k) <- full_mask;
          incr chosen;
          for n = 0 to nodes - 1 do
            if perm.Mcperf.Permission.reach.(n).(m) then covered.(n) <- true
          done
      done)
    demand.Workload.Demand.reads;
  placement

let strategy =
  Strategy.of_placement_rule ~name:"greedy-replica"
    ~heuristic_class:Mcperf.Classes.replica_constrained_uniform
    ~place:(fun perm ~parameter -> place ~perm ~replicas:parameter ())
    ~ceiling:(fun (perm : Mcperf.Permission.t) ->
      Mcperf.Spec.node_count perm.Mcperf.Permission.spec - 1)
