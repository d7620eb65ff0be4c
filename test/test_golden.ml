(* Golden round-trip tests for the plain-text serializers.

   The fixtures under [fixtures/] are committed in the writers' canonical
   form, so parse-then-print must reproduce them byte for byte. This pins
   the on-disk formats: any accidental change to a header, a separator or
   the float formatting shows up as a byte diff against the fixture rather
   than as silently incompatible files. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let topo_of_string s =
  match Topology.Topo_io.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e)

let trace_of_string s =
  match Workload.Trace_io.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e)

let test_topo_round_trip () =
  let golden = read_file "fixtures/golden.topo" in
  let graph, origin = topo_of_string golden in
  Alcotest.(check int) "node count" 5 (Topology.Graph.node_count graph);
  Alcotest.(check (option int)) "origin preserved" (Some 0) origin;
  Alcotest.(check (option (float 1e-9)))
    "latency preserved" (Some 120.5)
    (Topology.Graph.edge_weight graph 0 1);
  let printed = Topology.Topo_io.to_string ?origin graph in
  Alcotest.(check string) "read -> write reproduces the fixture" golden printed;
  (* Fixpoint: a second round trip changes nothing. *)
  let graph2, origin2 = topo_of_string printed in
  Alcotest.(check string)
    "write o read is a fixpoint" printed
    (Topology.Topo_io.to_string ?origin:origin2 graph2)

let test_trace_round_trip () =
  let golden = read_file "fixtures/golden.trace" in
  let trace = trace_of_string golden in
  Alcotest.(check int) "event count" 8 (Workload.Trace.length trace);
  Alcotest.(check int) "node count" 3 (Workload.Trace.node_count trace);
  Alcotest.(check int) "object count" 4 (Workload.Trace.object_count trace);
  Alcotest.(check int) "write count" 2 (Workload.Trace.write_count trace);
  Alcotest.(check (float 1e-9))
    "duration" 60.
    (Workload.Trace.duration_s trace);
  let printed = Workload.Trace_io.to_string trace in
  Alcotest.(check string) "read -> write reproduces the fixture" golden printed;
  let trace2 = trace_of_string printed in
  Alcotest.(check string)
    "write o read is a fixpoint" printed
    (Workload.Trace_io.to_string trace2)

(* Tree-family fixtures (the hand-verified DP instances of
   test_tree_dp.ml) are committed in canonical form too. *)
let test_tree_fixtures_round_trip () =
  List.iter
    (fun (name, nodes) ->
      let path = Filename.concat "fixtures" name in
      let golden = read_file path in
      match Topology.Topo_io.load_result ~path with
      | Error e ->
        Alcotest.failf "%s: %s" name (Util.Parse_error.to_string e)
      | Ok (graph, origin) ->
        Alcotest.(check int)
          (name ^ ": node count")
          nodes
          (Topology.Graph.node_count graph);
        Alcotest.(check (option int)) (name ^ ": origin") (Some 0) origin;
        Alcotest.(check bool)
          (name ^ ": is a tree")
          true (Topology.Graph.is_tree graph);
        Alcotest.(check string)
          (name ^ ": read -> write reproduces the fixture")
          golden
          (Topology.Topo_io.to_string ?origin graph))
    [ ("tree_chain.topo", 5); ("tree_star.topo", 5) ]

(* A torn tail (record truncated mid-write) must come back as a
   structured error naming the offending line — never a crash, never a
   silently shorter graph. *)
let test_torn_fixture () =
  match Topology.Topo_io.load_result ~path:"fixtures/tree_torn.topo" with
  | Ok _ -> Alcotest.fail "torn fixture parsed as a valid topology"
  | Error e ->
    Alcotest.(check int) "error names the torn line" 5 e.Topology.Topo_io.line;
    Alcotest.(check bool)
      "error carries the path" true
      (String.length e.Topology.Topo_io.file > 0)

(* The file-based save/load path must agree with the string path. *)
let test_save_load_agree () =
  let tmp = Filename.temp_file "golden" ".topo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let graph, origin = topo_of_string (read_file "fixtures/golden.topo") in
      Topology.Topo_io.save ?origin graph ~path:tmp;
      Alcotest.(check string)
        "save writes to_string bytes"
        (Topology.Topo_io.to_string ?origin graph)
        (read_file tmp));
  let tmp = Filename.temp_file "golden" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let trace = trace_of_string (read_file "fixtures/golden.trace") in
      Workload.Trace_io.save trace ~path:tmp;
      Alcotest.(check string)
        "save writes to_string bytes"
        (Workload.Trace_io.to_string trace)
        (read_file tmp))

let () =
  Alcotest.run "golden"
    [
      ( "round-trip",
        [
          Alcotest.test_case "topology fixture" `Quick test_topo_round_trip;
          Alcotest.test_case "trace fixture" `Quick test_trace_round_trip;
          Alcotest.test_case "tree fixtures" `Quick
            test_tree_fixtures_round_trip;
          Alcotest.test_case "torn tree fixture" `Quick test_torn_fixture;
          Alcotest.test_case "save/load agrees with to/of_string" `Quick
            test_save_load_agree;
        ] );
    ]
