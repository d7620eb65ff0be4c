(* Reference oracle for Mcperf.Permission.compute: the dense analysis
   that fills a nodes x objects matrix per stage (access, sphere,
   per-access sphere, last coverable read, and the two masks) and sweeps
   every (node, object) pair. It shares nothing with the library's sparse
   pass but [interval_bits] and the topology's reach and knowledge
   matrices, so the differential test in test_mcperf.ml can compare every
   field of the two. *)

type t = {
  placeable : bool array;
  reach : bool array array;
  know : bool array array;
  origin_covered : bool array;
  create_mask : int array array;
  store_mask : int array array;
}

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
  !acc land Mcperf.Permission.interval_bits intervals

let compute ?placeable (spec : Mcperf.Spec.t) (cls : Mcperf.Classes.t) =
  let sys = spec.system in
  let nodes = Mcperf.Spec.node_count spec in
  let placeable =
    match placeable with
    | None -> Array.make nodes true
    | Some p ->
      if Array.length p <> nodes then
        invalid_arg "Permission.compute: placeable length must equal node count";
      p
  in
  let intervals = Mcperf.Spec.interval_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let bits = Mcperf.Permission.interval_bits intervals in
  (* For a QoS goal, a replica helps node n only when it is both routable
     and within the latency threshold. For an average-latency goal there is
     no hard threshold: any routable replica can lower the average. *)
  let reach =
    match spec.goal with
    | Mcperf.Spec.Qos { tlat_ms; _ } ->
      Topology.System.effective_reach sys ~tlat:tlat_ms cls.routing
    | Mcperf.Spec.Avg_latency _ -> Topology.System.fetch_matrix sys cls.routing
  in
  let know = Topology.System.know_matrix sys cls.knowledge in
  let origin = sys.origin in
  let origin_covered = Array.init nodes (fun n -> reach.(n).(origin)) in
  (* Access masks: for each (node, object), the intervals with reads. *)
  let access = Array.make_matrix nodes objects 0 in
  Array.iteri
    (fun k cells ->
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          access.(c.node).(k) <- access.(c.node).(k) lor (1 lsl c.interval))
        cells)
    spec.demand.Workload.Demand.reads;
  (* Sphere masks: union of access masks over the sphere of knowledge.
     The two canonical knowledge models short-circuit the O(N^2 * K)
     union: under [Know_global] every row of [know] is all-true, so each
     node's sphere is the one global access union (O(N * K)); under
     [Know_local] the matrix is the identity, so the sphere {e is} the
     access matrix. Custom matrices keep the general triple loop. *)
  let sphere = Array.make_matrix nodes objects 0 in
  (match cls.knowledge with
  | Topology.System.Know_global ->
    let global = Array.make objects 0 in
    for v = 0 to nodes - 1 do
      let av = access.(v) in
      for k = 0 to objects - 1 do
        global.(k) <- global.(k) lor av.(k)
      done
    done;
    for m = 0 to nodes - 1 do
      Array.blit global 0 sphere.(m) 0 objects
    done
  | Topology.System.Know_local ->
    for m = 0 to nodes - 1 do
      Array.blit access.(m) 0 sphere.(m) 0 objects
    done
  | Topology.System.Know_custom _ ->
    for m = 0 to nodes - 1 do
      for v = 0 to nodes - 1 do
        if know.(m).(v) then
          for k = 0 to objects - 1 do
            sphere.(m).(k) <- sphere.(m).(k) lor access.(v).(k)
          done
      done
    done);
  (* Per-access refinement (Theorem 3): intervals where the sphere sees at
     least two accesses, so a per-access reactive heuristic has already
     reacted to the first by the time the later ones arrive. Only needed
     when the class opts in. *)
  let sphere_multi =
    if not cls.intra_interval then [||]
    else begin
      match cls.knowledge with
      | Topology.System.Know_global ->
        (* Every node sees every access: the per-interval totals are
           global sums over the (unique, node-ascending) cells, and the
           resulting row is identical for all nodes. *)
        let totals = Array.make_matrix objects intervals 0. in
        Array.iteri
          (fun k cells ->
            Array.iter
              (fun (c : Workload.Demand.cell) ->
                totals.(k).(c.interval) <- totals.(k).(c.interval) +. c.count)
              cells)
          spec.demand.Workload.Demand.reads;
        let row = Array.make objects 0 in
        for k = 0 to objects - 1 do
          for i = 0 to intervals - 1 do
            if totals.(k).(i) >= 2. then row.(k) <- row.(k) lor (1 lsl i)
          done
        done;
        Array.init nodes (fun _ -> Array.copy row)
      | Topology.System.Know_local ->
        (* A node sees only its own cells, and cells are unique per
           (interval, node): at least two sphere accesses iff that one
           cell carries count >= 2. *)
        let multi = Array.make_matrix nodes objects 0 in
        Array.iteri
          (fun k cells ->
            Array.iter
              (fun (c : Workload.Demand.cell) ->
                if c.count >= 2. then
                  multi.(c.node).(k) <- multi.(c.node).(k) lor (1 lsl c.interval))
              cells)
          spec.demand.Workload.Demand.reads;
        multi
      | Topology.System.Know_custom _ ->
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
          spec.demand.Workload.Demand.reads;
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
  (* Last interval with a read this node's replica could usefully cover.
     Under a QoS goal, reads from origin-covered nodes are already served
     within the threshold and never need placement; under an average-
     latency goal every read can still benefit from a closer replica. *)
  let needs_placement =
    match spec.goal with
    | Mcperf.Spec.Qos _ -> fun n -> not origin_covered.(n)
    | Mcperf.Spec.Avg_latency _ -> fun _ -> true
  in
  let last_coverable = Array.make_matrix nodes objects (-1) in
  Array.iteri
    (fun k cells ->
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          if needs_placement c.node then
            for m = 0 to nodes - 1 do
              if reach.(c.node).(m) && c.interval > last_coverable.(m).(k) then
                last_coverable.(m).(k) <- c.interval
            done)
        cells)
    spec.demand.Workload.Demand.reads;
  let create_mask = Array.make_matrix nodes objects 0 in
  let store_mask = Array.make_matrix nodes objects 0 in
  for m = 0 to nodes - 1 do
    if m <> origin && placeable.(m) then
      for k = 0 to objects - 1 do
        let permitted =
          match (cls.history, cls.timing) with
          | Mcperf.Classes.All_intervals, Mcperf.Classes.Proactive ->
            prefix_or sphere.(m).(k) ~intervals
          | Mcperf.Classes.All_intervals, Mcperf.Classes.Reactive ->
            prefix_or sphere.(m).(k) ~intervals lsl 1 land bits
          | Mcperf.Classes.Window w, Mcperf.Classes.Proactive ->
            if w < 1 then invalid_arg "Permission.compute: window must be >= 1";
            smear sphere.(m).(k) ~d0:0 ~d1:(w - 1) ~bits
          | Mcperf.Classes.Window w, Mcperf.Classes.Reactive ->
            if w < 1 then invalid_arg "Permission.compute: window must be >= 1";
            smear sphere.(m).(k) ~d0:1 ~d1:w ~bits
        in
        let permitted =
          if cls.intra_interval && cls.timing = Mcperf.Classes.Reactive then
            permitted lor sphere_multi.(m).(k)
          else permitted
        in
        let lc = last_coverable.(m).(k) in
        if lc >= 0 then begin
          let useful = Mcperf.Permission.interval_bits (lc + 1) in
          create_mask.(m).(k) <- permitted land useful;
          store_mask.(m).(k) <-
            prefix_or create_mask.(m).(k) ~intervals land useful
        end
      done
  done;
  let placeable =
    Array.mapi (fun m p -> p && m <> sys.Topology.System.origin) placeable
  in
  { placeable; reach; know; origin_covered; create_mask; store_mask }
