(* Benchmark harness: one workload's fixed op list, timed in whole passes.

   A workload is a list of sequences. A sequence is a fixed, ordered run
   of operations that share state (the epochs of one online replay) or a
   single stand-alone operation (one bound cell, one deployment, one
   Lagrangian bound). Every instance is pinned, so each pass does the
   same work; the seed only permutes the order of the sequences in each
   pass. That keeps the mix of work identical across seeds, which is what
   lets a median over one run be compared with a median over another.

   Each run: one warm-up pass that records every op's result signature
   and runs its one-off oracle, then whole passes until [seconds] have
   elapsed, each preceded by one timed build of the fixtures (the set-up
   metric). Every timed op must reproduce its warm-up signature bit for
   bit. With [--trace 1] the passes run under wall-clock Obs tracing and
   the harness folds the program's spans, plus its own probes, into
   per-layer self times.

   Output: one JSON line of raw samples on stdout; perfbench/run.py turns
   it into the reported metrics. *)

module CS = Replica_select.Case_study
module SS = Replica_select.Scale_scenario

type outcome = {
  signature : string;  (** must be identical on every pass *)
  oracle : unit -> (unit, string) result;
      (** expensive validity check, run once on the warm-up result *)
}

type op = { label : string; run : unit -> (outcome, string) result }

type sequence = {
  start : unit -> op list;  (** fresh state, then the ordered ops *)
  probes : (string * (unit -> float)) list;
      (** traced runs only: seconds spent in a direct call into a layer
          the program has no span for, on the inputs the sequence uses *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

let signature v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
let no_oracle () = Ok ()
let tol x = 1e-6 *. (1. +. Float.abs x)

(* Per-layer seconds, accumulated only while a traced pass runs. *)
let traced = ref false
let layer_s : (string, float) Hashtbl.t = Hashtbl.create 16
let layer name = Option.value ~default:0. (Hashtbl.find_opt layer_s name)
let add_layer name s = if !traced then Hashtbl.replace layer_s name (s +. layer name)

(* --- bound cells ------------------------------------------------------- *)

(* Two pinned case studies; every (class, QoS point) cell of the classes
   the paper's figures compare. Infeasible cells are kept: the
   permission oracle and Farkas witness are part of what a cell costs. *)
let cell_classes =
  Mcperf.Classes.
    [
      general;
      storage_constrained;
      replica_constrained_uniform;
      decentralized_local_routing;
      caching;
      cooperative_caching;
    ]

let case_studies () =
  [
    ("web", CS.make ~nodes:10 ~scale:0.006 ~intervals:12 CS.Web);
    ("group", CS.make ~nodes:10 ~scale:0.005 ~intervals:12 CS.Group);
  ]

let cells_workload () =
  let studies = case_studies () in
  List.concat_map
    (fun (wname, cs) ->
      List.concat_map
        (fun fraction ->
          let spec = CS.qos_spec cs ~fraction ~for_bounds:true () in
          List.map
            (fun (cls : Mcperf.Classes.t) ->
              let label =
                Printf.sprintf "%s/%s/%g" wname cls.Mcperf.Classes.name fraction
              in
              let run () =
                let c = Bounds.Pipeline.compute spec cls in
                let oracle () =
                  let rounded_ok =
                    match c.Bounds.Pipeline.rounded with
                    | Some r ->
                      let cost = r.Rounding.Round.evaluation.Mcperf.Costing.total in
                      c.Bounds.Pipeline.lower_bound <= cost +. tol cost
                    | None -> true
                  in
                  if not rounded_ok then
                    Error (label ^ ": lower bound above the rounded placement")
                  else
                    Result.map_error
                      (fun m -> label ^ ": certificate: " ^ m)
                      (Bounds.Pipeline.certify spec cls c)
                in
                Ok
                  {
                    signature =
                      signature
                        ( c.Bounds.Pipeline.feasible,
                          c.Bounds.Pipeline.lower_bound,
                          c.Bounds.Pipeline.lp_iterations,
                          Option.map
                            (fun r ->
                              r.Rounding.Round.evaluation.Mcperf.Costing.total)
                            c.Bounds.Pipeline.rounded );
                    oracle;
                  }
              in
              {
                start = (fun () -> [ { label; run } ]);
                probes =
                  [
                    ( "permission",
                      fun () -> timed (fun () -> Mcperf.Permission.compute spec cls) );
                    ( "model_build",
                      fun () ->
                        let perm = Mcperf.Permission.compute spec cls in
                        timed (fun () -> Mcperf.Model.build perm) );
                  ];
              })
            cell_classes)
        [ 0.95; 0.99 ])
    studies

(* --- heuristic deployments -------------------------------------------- *)

(* Every registered strategy's minimal goal-meeting deployment on both
   case studies at two QoS points: the Figure 2 search. The oracle
   checks weak duality against the strategy's class bound. *)
let deploy_workload () =
  let studies = case_studies () in
  List.concat_map
    (fun (wname, cs) ->
      List.concat_map
        (fun fraction ->
          let spec = CS.qos_spec cs ~fraction ~for_bounds:false () in
          let bound_spec = CS.qos_spec cs ~fraction ~for_bounds:true () in
          List.map
            (fun (sname, factory) ->
              let label = Printf.sprintf "%s/%s/%g" wname sname fraction in
              let run () =
                let d =
                  Sim.Runner.deploy_offline ~trace:cs.CS.trace ~factory ~spec ()
                in
                let oracle () =
                  match d with
                  | None -> Ok ()
                  | Some d when d.Sim.Runner.worst_qos < fraction -. 1e-9 ->
                    Error (label ^ ": deployment misses the QoS goal")
                  | Some d ->
                    let cls =
                      Heuristics.Strategy.heuristic_class
                        (factory (Heuristics.Strategy.Context.of_spec spec))
                    in
                    let b = Bounds.Pipeline.compute bound_spec cls in
                    if
                      b.Bounds.Pipeline.feasible
                      && d.Sim.Runner.cost
                         < b.Bounds.Pipeline.lower_bound
                           -. tol b.Bounds.Pipeline.lower_bound
                    then
                      Error
                        (Printf.sprintf "%s: cost %g below class bound %g" label
                           d.Sim.Runner.cost b.Bounds.Pipeline.lower_bound)
                    else Ok ()
                in
                Ok
                  {
                    signature =
                      signature
                        (Option.map
                           (fun (d : Sim.Runner.deployed) ->
                             (d.Sim.Runner.parameter, d.Sim.Runner.cost,
                              d.Sim.Runner.worst_qos))
                           d);
                    oracle;
                  }
              in
              { start = (fun () -> [ { label; run } ]); probes = [] })
            Heuristics.Registry.builtin)
        [ 0.95; 0.99 ])
    studies

(* --- online epochs ------------------------------------------------------ *)

(* Whole replays of the epoch loop: each sequence creates an engine and
   feeds its continuation chunks in order, one op per epoch. Regret must
   be nonnegative on every decision (the bound is valid at any
   iterate). *)
let online_workload () =
  let replay wname (cs : CS.t) ~intervals ~epoch_intervals =
    let interval_s =
      Workload.Trace.duration_s cs.CS.trace /. float_of_int intervals
    in
    let config =
      Online.Engine.default ~system:cs.CS.system ~interval_s ~epoch_intervals
        ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.95 })
        ()
    in
    let chunks =
      Online.Engine.chunks ~interval_s ~epoch_intervals cs.CS.trace
    in
    let name = Printf.sprintf "%s/epoch%d" wname epoch_intervals in
    let start () =
      let engine = Online.Engine.create config in
      List.mapi
        (fun i chunk ->
          let label = Printf.sprintf "%s/%d" name i in
          let run () =
            let e = Online.Engine.feed engine chunk in
            add_layer "strategy_search" e.Online.Engine.search_s;
            let negative =
              List.find_opt
                (fun (d : Online.Engine.decision) ->
                  match d.Online.Engine.regret with
                  | Some r -> r < -1e-9
                  | None -> false)
                e.Online.Engine.decisions
            in
            match negative with
            | Some d ->
              Error
                (Printf.sprintf "%s: negative regret for %s" label
                   d.Online.Engine.strategy)
            | None ->
              Ok
                {
                  signature =
                    signature
                      ( e.Online.Engine.intervals,
                        e.Online.Engine.total_events,
                        e.Online.Engine.working_set,
                        e.Online.Engine.decisions,
                        List.map
                          (fun (c, (b : Bounds.Pipeline.t)) ->
                            (c, b.Bounds.Pipeline.lower_bound))
                          e.Online.Engine.bounds );
                  oracle = no_oracle;
                }
          in
          { label; run })
        chunks
    in
    let nodes = Topology.System.node_count cs.CS.system in
    let fold () =
      List.fold_left
        (fun (incr, trace) chunk ->
          ( Workload.Incremental.extend incr chunk,
            match trace with
            | None -> Some chunk
            | Some prev -> Some (Workload.Trace.extend prev chunk) ))
        (Workload.Incremental.create ~nodes ~interval_s, None)
        chunks
    in
    { start; probes = [ ("workload_fold", fun () -> timed fold) ] }
  in
  let web = CS.make ~nodes:8 ~scale:0.005 ~intervals:8 CS.Web in
  let group = CS.make ~nodes:8 ~scale:0.003 ~intervals:8 CS.Group in
  [
    replay "web" web ~intervals:8 ~epoch_intervals:1;
    replay "group" group ~intervals:8 ~epoch_intervals:1;
  ]

(* --- CDN Lagrangian ----------------------------------------------------- *)

(* The bundled Lagrangian bound on a 94-node, 4000-object member of the
   CDN scale family at three QoS points under both step rules. The
   229-node, 10k-object default instance is not used: its working set
   makes it swing by a third with the load other tenants put on the
   machine's shared caches, far beyond any regression bound. The oracle
   is weak duality against a deployed greedy placement, whose cost is
   computed by code the Lagrangian shares nothing with. *)
let lagrangian_workload () =
  let scen = SS.make ~fanouts:[ 3; 5; 5 ] ~objects:4_000 () in
  List.concat_map
    (fun fraction ->
      let spec = SS.qos_spec scen ~fraction in
      let deployed = lazy (Sim.Runner.greedy_replica ~spec ()) in
      List.map
        (fun (rname, step_rule) ->
          let label = Printf.sprintf "cdn/%g/%s" fraction rname in
          let run () =
            let o =
              Bounds.Lagrangian.bound ~iterations:15 ~step_rule spec
                Mcperf.Classes.general
            in
            let b = o.Bounds.Lagrangian.bound in
            if not (Float.is_finite b && b > 0.) then
              Error (Printf.sprintf "%s: bound %g" label b)
            else
              let oracle () =
                match Lazy.force deployed with
                | None -> Error (label ^ ": no greedy-replica deployment")
                | Some d when b > d.Sim.Runner.cost +. tol d.Sim.Runner.cost ->
                  Error
                    (Printf.sprintf "%s: bound %g above deployed cost %g" label
                       b d.Sim.Runner.cost)
                | Some _ -> Ok ()
              in
              Ok
                {
                  signature =
                    signature (b, o.Bounds.Lagrangian.bundles, o.Bounds.Lagrangian.lambda);
                  oracle;
                }
          in
          {
            start = (fun () -> [ { label; run } ]);
            probes =
              [
                ( "permission",
                  fun () ->
                    timed (fun () ->
                        Mcperf.Permission.compute spec Mcperf.Classes.general) );
                ( "bundling",
                  fun () ->
                    let perm =
                      Mcperf.Permission.compute spec Mcperf.Classes.general
                    in
                    timed (fun () -> Mcperf.Bundle.compute perm) );
              ];
          })
        [ ("harmonic", Bounds.Lagrangian.Harmonic); ("adaptive", Bounds.Lagrangian.Adaptive) ])
    [ 0.9; 0.95; 0.99 ]

let workloads =
  [
    ("cells", cells_workload);
    ("deploy", deploy_workload);
    ("online", online_workload);
    ("lagrangian", lagrangian_workload);
  ]

(* --- traced runs: per-layer self time ----------------------------------- *)

(* Program spans folded into layers; every other span name lands in
   "other_spans". The bench's own "bench.op" span brackets each op, so
   its self time is what no program span covers. *)
let layer_of_span = function
  | "bench.op" -> "op_self"
  | "pipeline.solve_relaxation" -> "solve_setup"
  | "pdhg.solve" -> "pdhg"
  | "simplex.solve" -> "simplex"
  | "sim.heuristic" -> "heuristic"
  | "online.epoch" -> "epoch_self"
  | "task" -> "pool_task"
  | _ -> "other_spans"

(* Layers measured by the bench itself — probes, or the engine's own
   per-epoch search clock — and the span self time each one sits inside,
   from which it is carved so that the layers still sum to the op. *)
let carved =
  [
    ("permission", "op_self");
    ("model_build", "op_self");
    ("bundling", "op_self");
    ("workload_fold", "epoch_self");
    ("strategy_search", "epoch_self");
  ]

(* Reported per-layer times: carved layers, then what is left of each
   span layer. op_self's remainder is the unattributed time. *)
let reported_layers =
  [
    ("permission", "permission_ms");
    ("model_build", "model_build_ms");
    ("bundling", "bundling_ms");
    ("workload_fold", "workload_fold_ms");
    ("strategy_search", "strategy_search_ms");
    ("solve_setup", "solve_setup_ms");
    ("pdhg", "pdhg_ms");
    ("simplex", "simplex_ms");
    ("heuristic", "heuristic_ms");
    ("epoch_self", "epoch_other_ms");
    ("pool_task", "pool_dispatch_ms");
    ("other_spans", "other_spans_ms");
    ("op_self", "unattributed_ms");
  ]

let counters =
  [
    ("pdhg_iterations", "pdhg.iterations");
    ("simplex_pivots", "simplex.pivots");
    ("heuristic_runs", "sim.heuristic_runs");
    ("bound_solves", "online.bound_solves");
  ]

(* Self time of each span drained since the last call: its duration
   minus the durations of its direct children. Span ids are per scope;
   the pool runs each task under its own scope, whose root spans nest
   under the op that dispatched them. *)
let fold_spans () =
  let spans = Hashtbl.create 64 in
  let child_s = Hashtbl.create 64 in
  let op = ref None in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      let key = (ev.Obs.Trace.scope, ev.Obs.Trace.id) in
      match ev.Obs.Trace.kind with
      | Obs.Trace.Span_begin ->
        if ev.Obs.Trace.name = "bench.op" then op := Some key;
        let parent =
          if ev.Obs.Trace.parent <> 0 then Some (ev.Obs.Trace.scope, ev.Obs.Trace.parent)
          else if Some key = !op then None
          else !op
        in
        Hashtbl.replace spans key (ev.Obs.Trace.name, parent, ev.Obs.Trace.wall_s, nan)
      | Obs.Trace.Span_end -> (
        match Hashtbl.find_opt spans key with
        | Some (n, p, b, _) -> Hashtbl.replace spans key (n, p, b, ev.Obs.Trace.wall_s)
        | None -> ())
      | Obs.Trace.Point -> ())
    (Obs.Trace.drain ());
  Hashtbl.iter
    (fun _ (_, parent, b, e) ->
      match parent with
      | Some p when Float.is_finite (e -. b) ->
        Hashtbl.replace child_s p
          (e -. b +. Option.value ~default:0. (Hashtbl.find_opt child_s p))
      | _ -> ())
    spans;
  Hashtbl.iter
    (fun key (name, _, b, e) ->
      if Float.is_finite (e -. b) then
        add_layer (layer_of_span name)
          (e -. b -. Option.value ~default:0. (Hashtbl.find_opt child_s key)))
    spans

(* --- the run ------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op order");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let seqs = Array.of_list (make ()) in
  let rng = Random.State.make [| !seed |] in
  let reference = Hashtbl.create 64 in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let fail msg =
    incr failed;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  (* Warm-up and reference pass: untimed, runs every oracle once. *)
  Array.iter
    (fun s ->
      List.iter
        (fun o ->
          incr attempted;
          match o.run () with
          | exception e -> fail (o.label ^ ": " ^ Printexc.to_string e)
          | Error m -> fail m
          | Ok r -> (
            Hashtbl.replace reference o.label r.signature;
            match r.oracle () with
            | exception e -> fail (o.label ^ ": oracle: " ^ Printexc.to_string e)
            | Error m -> fail m
            | Ok () -> ()))
        (s.start ()))
    seqs;
  if !trace = 1 then begin
    traced := true;
    Obs.Config.install
      {
        Obs.Config.trace = true;
        metrics = true;
        wall_clock = true;
        sink = Obs.Config.Memory;
        metrics_path = None;
      }
  end;
  let samples = ref [] and passes = ref 0 and setup_s = ref [] in
  let t_end = now () +. !seconds in
  while !passes = 0 || now () < t_end do
    (* One timed fixture build per pass, so the set-up median samples the
       whole run rather than one instant of it. *)
    Gc.full_major ();
    setup_s := timed make :: !setup_s;
    Gc.compact ();
    shuffle rng seqs;
    Array.iter
      (fun s ->
        if !traced then List.iter (fun (l, probe) -> add_layer l (probe ())) s.probes;
        List.iter
          (fun o ->
            incr attempted;
            let sp = Obs.Trace.span_begin "bench.op" in
            let t0 = now () in
            let r =
              try o.run () with e -> Error (o.label ^ ": " ^ Printexc.to_string e)
            in
            let dt = now () -. t0 in
            Obs.Trace.span_end sp;
            if !traced then fold_spans ();
            samples := (o.label, dt *. 1000.) :: !samples;
            match r with
            | Error m -> fail m
            | Ok r ->
              if Hashtbl.find_opt reference o.label <> Some r.signature then
                fail (o.label ^ ": result differs from the reference pass"))
          (s.start ()))
      seqs;
    incr passes
  done;
  List.iter (fun (l, parent) -> add_layer parent (-.layer l)) carved;
  let per_op x = x /. float_of_int (max 1 (List.length !samples)) in
  let layers =
    List.map (fun (l, key) -> (key, per_op (1000. *. layer l))) reported_layers
    @ List.map
        (fun (key, c) ->
          ( key,
            per_op (float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter c)))
          ))
        counters
  in
  let json_str s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
        | ' ' .. '~' -> Buffer.add_char b c
        | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)))
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  in
  let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]" in
  Printf.printf
    "{\"setup_s\":%s,\"samples\":%s,\"passes\":%d,\"attempted\":%d,\"failed\":%d,\"errors\":%s,\"layers\":{%s}}\n"
    (json_list (Printf.sprintf "%.9g") !setup_s)
    (json_list (fun (l, ms) -> Printf.sprintf "[%s,%.6f]" (json_str l) ms) (List.rev !samples))
    !passes !attempted !failed
    (json_list json_str (List.rev !errors))
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%.9g" (json_str k) v) layers))
