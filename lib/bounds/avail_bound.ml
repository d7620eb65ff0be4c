type cell = {
  class_name : string;
  fraction : float;
  feasible : bool;
  expected_bound : float;
  nominal_vars : int;
  vars : int;
  rows : int;
  exact : bool;
  iterations : int;
}

(* The scenario model shares Model.build's store/create skeleton and QoS
   rows, then appends per-scenario coverage terms. The nominal coverage
   variables carry no objective here: the degraded cost keeps the
   placement's sunk resources and replaces the nominal latency penalty
   with the per-scenario service terms, so pricing the nominal penalty
   too would overcount and break the lower bound. Class storage/replica
   padding and node-opening fees are likewise omitted — every placement
   pays at least the bare [alpha]/[beta]/[delta] resource terms, so
   dropping the extras only loosens the minimum. *)
type built = { problem : Lp.Problem.t; offset : float; nominal_vars : int }

(* Same packing as Mcperf.Model (not exported there). *)
let pack ~intervals ~objects ~node ~interval ~object_id =
  ((node * objects) + object_id) * intervals + interval

let build_scenario_model ~tlat_ms ~fraction (perm : Mcperf.Permission.t)
    (scenarios : Avail.Scenario.t array) =
  let spec = perm.Mcperf.Permission.spec in
  let sys = spec.Mcperf.Spec.system in
  let demand = spec.Mcperf.Spec.demand in
  let nodes = Mcperf.Spec.node_count spec in
  let intervals = Mcperf.Spec.interval_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let origin = sys.Topology.System.origin in
  let weight = demand.Workload.Demand.weight in
  let costs = spec.Mcperf.Spec.costs in
  if Array.length scenarios = 0 then
    invalid_arg "Avail_bound: empty scenario set";
  let miss = Avail.Survive.miss_penalty spec in
  let gamma = costs.Mcperf.Spec.gamma in
  let b = Lp.Problem.Builder.create () in
  (* Write totals for the update-cost term, as in Model.build. *)
  let write_totals =
    if costs.Mcperf.Spec.delta > 0. then begin
      let w = Array.make_matrix objects intervals 0. in
      Array.iteri
        (fun k cells ->
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              w.(k).(c.Workload.Demand.interval) <-
                w.(k).(c.Workload.Demand.interval) +. c.Workload.Demand.count)
            cells)
        demand.Workload.Demand.writes;
      Some w
    end
    else None
  in
  (* Store/create variables over the pruned support, with continuity. *)
  let store_tbl = Hashtbl.create 4096 in
  for m = 0 to nodes - 1 do
    if m <> origin then
      for k = 0 to objects - 1 do
        let smask = perm.Mcperf.Permission.store_mask.(m).(k) in
        if smask <> 0 then begin
          let w = weight.(k) in
          let prev_store = ref None in
          for i = 0 to intervals - 1 do
            if smask land (1 lsl i) <> 0 then begin
              let store_obj =
                (costs.Mcperf.Spec.alpha *. w)
                +.
                match write_totals with
                | Some wt -> costs.Mcperf.Spec.delta *. w *. wt.(k).(i)
                | None -> 0.
              in
              let sv =
                Lp.Problem.Builder.add_var b ~lo:0. ~hi:1. ~obj:store_obj ()
              in
              Hashtbl.add store_tbl
                (pack ~intervals ~objects ~node:m ~interval:i
                   ~object_id:k)
                sv;
              let row = ref [ (sv, 1.) ] in
              (match !prev_store with
              | Some pv -> row := (pv, -1.) :: !row
              | None -> ());
              if
                Mcperf.Permission.create_allowed perm ~node:m ~interval:i
                  ~object_id:k
              then begin
                let cv =
                  Lp.Problem.Builder.add_var b ~lo:0. ~hi:1.
                    ~obj:(costs.Mcperf.Spec.beta *. w)
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
  (* Nominal QoS rows — zero-priced coverage variables, target rhs. *)
  let node_totals = Workload.Demand.node_read_totals demand in
  let always_covered = Array.make nodes 0. in
  let qos_terms = Array.make nodes [] in
  Array.iteri
    (fun k cells ->
      let w = weight.(k) in
      Array.iter
        (fun (c : Workload.Demand.cell) ->
          let n = c.Workload.Demand.node and i = c.Workload.Demand.interval in
          let rw = w *. c.Workload.Demand.count in
          if perm.Mcperf.Permission.origin_covered.(n) then
            always_covered.(n) <- always_covered.(n) +. rw
          else begin
            let covering = ref [] in
            for m = 0 to nodes - 1 do
              if perm.Mcperf.Permission.reach.(n).(m) then
                match
                  Hashtbl.find_opt store_tbl
                    (pack ~intervals ~objects ~node:m ~interval:i
                       ~object_id:k)
                with
                | Some sv -> covering := sv :: !covering
                | None -> ()
            done;
            if !covering <> [] then begin
              let cv = Lp.Problem.Builder.add_var b ~lo:0. ~hi:1. ~obj:0. () in
              Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                ((cv, 1.) :: List.map (fun sv -> (sv, -1.)) !covering);
              qos_terms.(n) <- (cv, rw) :: qos_terms.(n)
            end
          end)
        cells)
    demand.Workload.Demand.reads;
  for n = 0 to nodes - 1 do
    let rhs = (fraction *. node_totals.(n)) -. always_covered.(n) in
    if qos_terms.(n) <> [] || rhs > 1e-9 then
      Lp.Problem.Builder.add_row b Lp.Problem.Ge ~rhs qos_terms.(n)
  done;
  let nominal_vars = Lp.Problem.Builder.var_count b in
  (* Scenario terms: each read cell priced at its degraded fallback,
     discharged by coverage from a surviving reachable store. The prices
     mirror Survive.degrade exactly: reads from failed clients and reads
     orphaned by an origin loss pay the miss penalty, reads falling back
     to a live origin pay the late-service penalty. *)
  let offset = ref 0. in
  let w_s = 1. /. float_of_int (Array.length scenarios) in
  Array.iter
    (fun (s : Avail.Scenario.t) ->
      let down = s.Avail.Scenario.down in
      let origin_up = not down.(origin) in
      Array.iteri
        (fun k cells ->
          let w = weight.(k) in
          Array.iter
            (fun (c : Workload.Demand.cell) ->
              let n = c.Workload.Demand.node
              and i = c.Workload.Demand.interval in
              let rw = w *. c.Workload.Demand.count in
              if down.(n) then offset := !offset +. (w_s *. rw *. miss)
              else begin
                let price =
                  if origin_up then
                    gamma
                    *. Float.max 0.
                         (sys.Topology.System.latency.(n).(origin) -. tlat_ms)
                  else miss
                in
                if price > 0. then begin
                  let covering = ref [] in
                  for m = 0 to nodes - 1 do
                    if (not down.(m)) && perm.Mcperf.Permission.reach.(n).(m)
                    then
                      match
                        Hashtbl.find_opt store_tbl
                          (pack ~intervals ~objects ~node:m
                             ~interval:i ~object_id:k)
                      with
                      | Some sv -> covering := sv :: !covering
                      | None -> ()
                  done;
                  let charge = w_s *. rw *. price in
                  offset := !offset +. charge;
                  if !covering <> [] then begin
                    let cv =
                      Lp.Problem.Builder.add_var b ~lo:0. ~hi:1. ~obj:(-.charge)
                        ()
                    in
                    Lp.Problem.Builder.add_row b Lp.Problem.Le ~rhs:0.
                      ((cv, 1.) :: List.map (fun sv -> (sv, -1.)) !covering)
                  end
                end
              end)
            cells)
        demand.Workload.Demand.reads)
    scenarios;
  { problem = Lp.Problem.Builder.build b; offset = !offset; nominal_vars }

(* One cold cell: build the scenario model at the spec's own goal and
   solve it on the solver [Pipeline.route] picks for its dimensions. *)
let expected_cost_bound ?(solver = Pipeline.Auto) (spec : Mcperf.Spec.t)
    (cls : Mcperf.Classes.t) ~scenarios =
  let tlat_ms, fraction =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos { tlat_ms; fraction } -> (tlat_ms, fraction)
    | Mcperf.Spec.Avg_latency _ ->
      invalid_arg "Avail_bound: expected-cost LP needs a QoS goal"
  in
  let perm = Mcperf.Permission.compute spec cls in
  let built = build_scenario_model ~tlat_ms ~fraction perm scenarios in
  let problem = built.problem in
  let nvars = Lp.Problem.nvars problem in
  let nrows = Lp.Problem.nrows problem in
  let cell ~feasible ~bound ~exact ~iterations =
    {
      class_name = cls.Mcperf.Classes.name;
      fraction;
      feasible;
      expected_bound = (if feasible then bound +. built.offset else infinity);
      nominal_vars = built.nominal_vars;
      vars = nvars;
      rows = nrows;
      exact;
      iterations;
    }
  in
  if not (Mcperf.Permission.feasible perm) then
    (* The oracle already knows no class placement can reach the goal. *)
    cell ~feasible:false ~bound:infinity ~exact:false ~iterations:0
  else
    match Pipeline.route solver ~vars:nvars ~rows:nrows with
    | Pipeline.Simplex -> (
      match Lp.Simplex.solve problem with
      | Lp.Simplex.Optimal { objective; _ } ->
        cell ~feasible:true ~bound:objective ~exact:true ~iterations:0
      | Lp.Simplex.Infeasible ->
        cell ~feasible:false ~bound:infinity ~exact:true ~iterations:0
      | Lp.Simplex.Unbounded ->
        (* Impossible for a box-bounded minimization; treat as no bound. *)
        cell ~feasible:true ~bound:neg_infinity ~exact:false ~iterations:0)
    | Pipeline.Pdhg options ->
      let outcome = Lp.Pdhg.solve ~options problem in
      cell ~feasible:true ~bound:outcome.Lp.Pdhg.best_bound ~exact:false
        ~iterations:outcome.Lp.Pdhg.iterations

type group_check = {
  group : string;
  size : int;
  failed : int array;
  violation : float;
  unavail_fraction : float;
  cost_ratio : float;
  survives : bool;
}

let subset_limit = 2048

(* C(n,k) with saturation at [limit + 1] so huge groups cannot overflow. *)
let choose_capped n k limit =
  let rec go acc i =
    if i > k then acc
    else
      let acc = acc * (n - i + 1) / i in
      if acc > limit then limit + 1 else go acc (i + 1)
  in
  if k > n then 0 else go 1 1

let rec combinations k items =
  if k = 0 then [ [] ]
  else
    match items with
    | [] -> []
    | x :: rest ->
      List.map (fun c -> x :: c) (combinations (k - 1) rest)
      @ combinations k rest

(* Failures per group in the worst-case check. *)
let failures_per_group = 2

let k_failure_check (perm : Mcperf.Permission.t) placement
    ~(groups : Avail.Groups.t array) =
  let spec = perm.Mcperf.Permission.spec in
  let nodes = Mcperf.Spec.node_count spec in
  let weight = spec.Mcperf.Spec.demand.Workload.Demand.weight in
  let node_totals =
    Workload.Demand.node_read_totals spec.Mcperf.Spec.demand
  in
  let max_violation =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos { fraction; _ } -> 1. -. fraction
    | Mcperf.Spec.Avg_latency _ -> 0.
  in
  let base = Mcperf.Costing.evaluate perm placement in
  (* Severity of failing one node: the demand it sources plus the replica
     mass it hosts — the greedy stand-in for exhaustive enumeration. *)
  let severity m =
    let replica_mass = ref 0. in
    Array.iteri
      (fun kid mask ->
        let bits = ref mask in
        let pop = ref 0 in
        while !bits <> 0 do
          bits := !bits land (!bits - 1);
          incr pop
        done;
        replica_mass := !replica_mass +. (weight.(kid) *. float_of_int !pop))
      placement.(m);
    node_totals.(m) +. !replica_mass
  in
  Array.map
    (fun (g : Avail.Groups.t) ->
      let members = Array.to_list g.Avail.Groups.members in
      let size = List.length members in
      let kk = min failures_per_group size in
      let candidates =
        if choose_capped size kk subset_limit <= subset_limit then
          combinations kk members
        else begin
          (* Deterministic greedy: the kk members with the most weighted
             demand + replica mass (ties broken by node id). *)
          let scored =
            List.stable_sort
              (fun (sa, ma) (sb, mb) ->
                match compare sb sa with 0 -> compare ma mb | c -> c)
              (List.map (fun m -> (severity m, m)) members)
          in
          [ List.filteri (fun i _ -> i < kk) (List.map snd scored) ]
        end
      in
      let worst = ref None in
      List.iter
        (fun subset ->
          let down = Array.make nodes false in
          List.iter (fun m -> down.(m) <- true) subset;
          let d = Avail.Survive.degrade ~base perm placement ~down in
          let cost = d.Avail.Survive.degraded_cost in
          match !worst with
          | Some (best_cost, _, _) when cost <= best_cost -> ()
          | _ -> worst := Some (cost, subset, d))
        candidates;
      let _, subset, d =
        match !worst with Some w -> w | None -> assert false
      in
      {
        group = g.Avail.Groups.name;
        size;
        failed = Array.of_list subset;
        violation = d.Avail.Survive.violation;
        unavail_fraction = d.Avail.Survive.unavail_fraction;
        cost_ratio = d.Avail.Survive.cost_ratio;
        survives = d.Avail.Survive.violation <= max_violation +. 1e-12;
      })
    groups
