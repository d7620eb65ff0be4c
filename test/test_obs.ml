(* Observability subsystem tests.

   Four concerns, mirroring the determinism contract in DESIGN §11:
   - spans are well-bracketed per scope (thread of control), including
     when inner spans are abandoned and closed implicitly;
   - histogram buckets are strictly bound-ascending and conserve counts;
   - a traced sweep's JSONL output is byte-identical at --jobs 1 and 4
     in logical mode (the worker-merge round-trip);
   - tracing through the null sink does not perturb sweep results. *)

let with_config cfg f =
  Obs.Config.install cfg;
  Fun.protect
    ~finally:(fun () -> Obs.Config.install Obs.Config.disabled)
    f

(* --- fixtures (same shape as test_anytime's sweep fixture) ------------ *)

let cell n i c : Workload.Demand.cell = { node = n; interval = i; count = c }

let line_system () =
  let g =
    Topology.Graph.of_edges 4 [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ]
  in
  Topology.System.make ~origin:0 g

let tail_demand () =
  Workload.Demand.create ~nodes:4 ~intervals:4 ~interval_s:3600.
    ~reads:[| [| cell 3 0 10.; cell 3 1 10.; cell 3 2 10.; cell 3 3 10. |] |]
    ()

let qos_spec ?(fraction = 1.0) () =
  Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ())
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction })
    ()

let sweep_fixture =
  [ ("general", Mcperf.Classes.general); ("caching", Mcperf.Classes.caching) ]

let sweep_fractions = [ 0.7; 0.9; 1.0 ]

let run_sweep ?obs ~jobs () =
  Option.iter Obs.Config.install obs;
  Bounds.Pipeline.sweep_classes
    { Bounds.Pipeline.Sweep_config.default with jobs }
    (qos_spec ()) ~fractions:sweep_fractions sweep_fixture

(* Everything a cell *computed*, stripped of wall-clock bookkeeping:
   this must not move when instrumentation is switched on. *)
let signature (s : Bounds.Pipeline.sweep) =
  List.map
    (fun (label, cells) ->
      ( label,
        List.map
          (fun (q, (r : Bounds.Pipeline.t)) ->
            ( q,
              r.Bounds.Pipeline.feasible,
              r.Bounds.Pipeline.lower_bound,
              r.Bounds.Pipeline.lp_iterations ))
          cells ))
    s.Bounds.Pipeline.per_class

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- span bracketing (property) --------------------------------------- *)

(* A random span program: points, explicitly closed spans, and spans
   that are deliberately left open so an ancestor's close must sweep
   them up (the implicit-close path in Trace.span_end). *)
type prog = Point | Span of bool * prog list

let gen_prog =
  let open QCheck2.Gen in
  sized_size (int_range 1 16) @@ fix (fun self n ->
      if n <= 0 then return Point
      else
        frequency
          [
            (1, return Point);
            ( 3,
              map2
                (fun closed kids -> Span (closed, kids))
                bool
                (list_size (int_range 0 3) (self (n / 2))) );
          ])

let gen_program =
  QCheck2.Gen.(
    list_size (int_range 1 6) (pair (int_range 0 2) gen_prog))

let rec exec_prog = function
  | Point -> Obs.Trace.event "p"
  | Span (closed, kids) ->
    let sp = Obs.Trace.span_begin "s" in
    List.iter exec_prog kids;
    if closed then Obs.Trace.span_end sp

(* Replay one scope's events (already in seq order) against a stack and
   check the bracketing invariants. *)
let check_scope_bracketing evs =
  let stack = ref [] in
  let next_seq = ref 0 in
  let next_id = ref 1 in
  let begins = ref 0 in
  let ends = ref 0 in
  let top () = match !stack with [] -> 0 | p :: _ -> p in
  let ok =
    List.for_all
      (fun (e : Obs.Trace.event) ->
        let seq_ok = e.Obs.Trace.seq = !next_seq in
        incr next_seq;
        seq_ok
        &&
        match e.Obs.Trace.kind with
        | Obs.Trace.Span_begin ->
          incr begins;
          let ok = e.Obs.Trace.id = !next_id && e.Obs.Trace.parent = top () in
          incr next_id;
          stack := e.Obs.Trace.id :: !stack;
          ok
        | Obs.Trace.Span_end -> (
          incr ends;
          match !stack with
          | [] -> false
          | id :: rest ->
            stack := rest;
            e.Obs.Trace.id = id && e.Obs.Trace.parent = top ())
        | Obs.Trace.Point ->
          e.Obs.Trace.id = 0 && e.Obs.Trace.parent = top ())
      evs
  in
  ok && !stack = [] && !begins = !ends

let prop_well_bracketed =
  QCheck2.Test.make ~count:200 ~name:"spans well-bracketed per scope"
    gen_program (fun program ->
      with_config
        { Obs.Config.default with sink = Obs.Config.Memory }
        (fun () ->
          let scope_names = [| "main"; "task:0"; "task:1" |] in
          let roots = Hashtbl.create 3 in
          List.iter
            (fun (i, p) ->
              let scope = scope_names.(i) in
              Obs.Trace.set_scope scope;
              if not (Hashtbl.mem roots scope) then
                Hashtbl.replace roots scope (Obs.Trace.span_begin "root");
              exec_prog p)
            program;
          (* Closing each root implicitly closes whatever the program
             left dangling beneath it. *)
          Hashtbl.iter (fun _ sp -> Obs.Trace.span_end sp) roots;
          let by_scope = Hashtbl.create 3 in
          List.iter
            (fun (e : Obs.Trace.event) ->
              let prev =
                Option.value ~default:[]
                  (Hashtbl.find_opt by_scope e.Obs.Trace.scope)
              in
              Hashtbl.replace by_scope e.Obs.Trace.scope (e :: prev))
            (Obs.Trace.events ());
          Hashtbl.fold
            (fun _ evs acc -> acc && check_scope_bracketing (List.rev evs))
            by_scope true))

(* --- histogram buckets (property) -------------------------------------- *)

let gen_samples =
  (* Mantissa/exponent pairs spanning ~12 decades, plus zero and
     negative samples to hit the underflow bucket. *)
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (map
         (fun (m, e) -> float_of_int m /. 100. *. (10. ** float_of_int e))
         (pair (int_range (-100) 1000) (int_range (-6) 6))))

let prop_histogram_buckets =
  QCheck2.Test.make ~count:200 ~name:"histogram buckets monotone, conserve"
    gen_samples (fun samples ->
      with_config Obs.Config.default (fun () ->
          let h = Obs.Metrics.histogram "test.hist" in
          List.iter (Obs.Metrics.observe h) samples;
          let buckets = Obs.Metrics.histogram_buckets h in
          let count, sum, _, _ = Obs.Metrics.histogram_stats h in
          let bounds = List.map fst buckets in
          let counts = List.map snd buckets in
          let rec ascending = function
            | a :: (b :: _ as rest) -> a < b && ascending rest
            | _ -> true
          in
          ascending bounds
          && List.for_all (fun c -> c > 0) counts
          && List.fold_left ( + ) 0 counts = List.length samples
          && count = List.length samples
          && Float.abs (sum -. List.fold_left ( +. ) 0. samples)
             <= 1e-9 *. (1. +. Float.abs sum)))

(* --- logical mode omits wall-clock data -------------------------------- *)

let test_logical_mode_no_clocks () =
  with_config
    { Obs.Config.default with sink = Obs.Config.Memory }
    (fun () ->
      let sp =
        Obs.Trace.span_begin "s"
          ~attrs:[ ("n", Obs.Trace.Int 1); ("wall_x", Obs.Trace.Float 2.) ]
      in
      Obs.Trace.span_end sp;
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "two events" 2 (List.length evs);
      List.iter
        (fun (e : Obs.Trace.event) ->
          Alcotest.(check bool)
            "wall_s is nan in logical mode" true
            (Float.is_nan e.Obs.Trace.wall_s);
          let json = Obs.Trace.event_to_json e in
          let contains needle hay =
            let nl = String.length needle and hl = String.length hay in
            let rec go i = i + nl <= hl
                           && (String.sub hay i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "no wall_s in JSON" false (contains "wall_s" json);
          Alcotest.(check bool) "no wall_ attrs in JSON" false (contains "wall_x" json))
        evs);
  with_config
    { Obs.Config.default with wall_clock = true; sink = Obs.Config.Memory }
    (fun () ->
      let sp = Obs.Trace.span_begin "s" in
      Obs.Trace.span_end sp;
      List.iter
        (fun (e : Obs.Trace.event) ->
          Alcotest.(check bool)
            "wall_s present in profile mode" true
            (Float.is_finite e.Obs.Trace.wall_s))
        (Obs.Trace.events ()))

(* --- traced sweep: JSONL identical across --jobs ----------------------- *)

let sweep_trace_jsonl ~jobs =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let obs =
        { Obs.Config.default with sink = Obs.Config.Jsonl_file path }
      in
      let sweep = run_sweep ~obs ~jobs () in
      let cells = Obs.Metrics.counter_value (Obs.Metrics.counter "pipeline.cells") in
      Obs.Sink.flush ();
      Obs.Config.install Obs.Config.disabled;
      (read_file path, signature sweep, cells))

let test_trace_jobs_identical () =
  let t1, sig1, cells1 = sweep_trace_jsonl ~jobs:1 in
  let t4, sig4, cells4 = sweep_trace_jsonl ~jobs:4 in
  let total =
    List.length sweep_fixture * List.length sweep_fractions
  in
  Alcotest.(check int) "all cells metered at jobs=1" total cells1;
  Alcotest.(check int) "worker counters merged at jobs=4" total cells4;
  Alcotest.(check bool) "results identical" true (sig1 = sig4);
  let lines s =
    String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
  in
  let l1 = lines t1 in
  Alcotest.(check bool) "trace is non-trivial" true (List.length l1 > 20);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        "line is a JSON object with a scope" true
        (String.length l > 12
        && String.sub l 0 10 = {|{"scope":"|}
        && l.[String.length l - 1] = '}'))
    l1;
  (* The headline property: the merged jobs=4 trace is byte-identical
     to the sequential one. *)
  Alcotest.(check string) "jsonl trace identical at jobs 1 and 4" t1 t4

(* --- null sink does not perturb results -------------------------------- *)

let test_null_sink_determinism () =
  Obs.Config.install Obs.Config.disabled;
  let untraced = signature (run_sweep ~jobs:1 ()) in
  let traced =
    Fun.protect
      ~finally:(fun () -> Obs.Config.install Obs.Config.disabled)
      (fun () -> signature (run_sweep ~obs:Obs.Config.default ~jobs:1 ()))
  in
  let traced4 =
    Fun.protect
      ~finally:(fun () -> Obs.Config.install Obs.Config.disabled)
      (fun () -> signature (run_sweep ~obs:Obs.Config.default ~jobs:4 ()))
  in
  Alcotest.(check bool) "traced = untraced at jobs=1" true (untraced = traced);
  Alcotest.(check bool) "traced = untraced at jobs=4" true (untraced = traced4)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_well_bracketed; prop_histogram_buckets ]
  in
  Alcotest.run "obs"
    [
      ("properties", props);
      ( "trace",
        [
          Alcotest.test_case "logical mode omits clocks" `Quick
            test_logical_mode_no_clocks;
          Alcotest.test_case "jsonl identical across jobs" `Slow
            test_trace_jobs_identical;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "null sink non-interference" `Slow
            test_null_sink_determinism;
        ] );
    ]
