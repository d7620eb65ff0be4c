(* Tests for the topology substrate: graphs, shortest paths, generators,
   and the system view (dist / fetch / know matrices). *)

let rng () = Util.Prng.create ~seed:2004

let lat100_200 = Topology.Generate.default_hop_latency

(* --- graphs ------------------------------------------------------------ *)

let test_graph_basics () =
  let g = Topology.Graph.create 4 in
  Topology.Graph.add_edge g 0 1 10.;
  Topology.Graph.add_edge g 1 2 20.;
  Alcotest.(check int) "nodes" 4 (Topology.Graph.node_count g);
  Alcotest.(check int) "edges" 2 (Topology.Graph.edge_count g);
  Alcotest.(check bool) "has 0-1" true (Topology.Graph.has_edge g 0 1);
  Alcotest.(check bool) "has 1-0" true (Topology.Graph.has_edge g 1 0);
  Alcotest.(check bool) "no 0-2" false (Topology.Graph.has_edge g 0 2);
  Alcotest.(check (option (float 1e-9))) "weight" (Some 20.)
    (Topology.Graph.edge_weight g 2 1);
  Alcotest.(check int) "degree 1" 2 (Topology.Graph.degree g 1);
  Alcotest.(check bool) "not connected" false (Topology.Graph.is_connected g)

let test_graph_rejects_bad_edges () =
  let g = Topology.Graph.create 3 in
  Topology.Graph.add_edge g 0 1 5.;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Topology.Graph.add_edge g 1 1 1.);
  Alcotest.check_raises "parallel"
    (Invalid_argument "Graph.add_edge: parallel edge") (fun () ->
      Topology.Graph.add_edge g 1 0 2.);
  Alcotest.check_raises "negative"
    (Invalid_argument "Graph.add_edge: negative latency") (fun () ->
      Topology.Graph.add_edge g 1 2 (-1.))

let test_graph_of_edges_roundtrip () =
  let edges = [ (0, 1, 5.); (1, 2, 7.); (0, 3, 2.) ] in
  let g = Topology.Graph.of_edges 4 edges in
  Alcotest.(check int) "edge count" 3 (List.length (Topology.Graph.edges g));
  List.iter
    (fun (u, v, w) ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "weight %d-%d" u v)
        (Some w)
        (Topology.Graph.edge_weight g u v))
    edges

(* --- shortest paths ----------------------------------------------------- *)

let test_dijkstra_line () =
  let g = Topology.Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 4.) ] in
  let d = Topology.Shortest_path.dijkstra g 0 in
  Alcotest.(check (float 1e-9)) "d0" 0. d.(0);
  Alcotest.(check (float 1e-9)) "d1" 1. d.(1);
  Alcotest.(check (float 1e-9)) "d2" 3. d.(2);
  Alcotest.(check (float 1e-9)) "d3" 7. d.(3)

let test_dijkstra_prefers_cheaper_path () =
  let g =
    Topology.Graph.of_edges 3 [ (0, 1, 10.); (0, 2, 1.); (2, 1, 2.) ]
  in
  let d = Topology.Shortest_path.dijkstra g 0 in
  Alcotest.(check (float 1e-9)) "via 2" 3. d.(1)

let test_dijkstra_unreachable () =
  let g = Topology.Graph.of_edges 3 [ (0, 1, 1.) ] in
  let d = Topology.Shortest_path.dijkstra g 0 in
  Alcotest.(check bool) "infinite" true (d.(2) = infinity)

let prop_dijkstra_matches_floyd_warshall =
  QCheck2.Test.make ~count:60 ~name:"dijkstra all-pairs = floyd-warshall"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed in
      let n = 2 + Util.Prng.int rng 12 in
      let g =
        Topology.Generate.as_like ~rng ~nodes:n ~latency:lat100_200
      in
      let a = Topology.Shortest_path.all_pairs g in
      let b = Topology.Shortest_path.floyd_warshall g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if not (Util.Vecops.approx_equal ~eps:1e-6 a.(i).(j) b.(i).(j)) then
            ok := false
        done
      done;
      !ok)

let prop_shortest_paths_metric =
  QCheck2.Test.make ~count:40
    ~name:"shortest-path matrix is symmetric and satisfies triangle inequality"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(seed + 17) in
      let n = 2 + Util.Prng.int rng 10 in
      let g = Topology.Generate.as_like ~rng ~nodes:n ~latency:lat100_200 in
      let d = Topology.Shortest_path.all_pairs g in
      let ok = ref true in
      for i = 0 to n - 1 do
        if d.(i).(i) <> 0. then ok := false;
        for j = 0 to n - 1 do
          if not (Util.Vecops.approx_equal ~eps:1e-6 d.(i).(j) d.(j).(i)) then
            ok := false;
          for k = 0 to n - 1 do
            if d.(i).(j) > d.(i).(k) +. d.(k).(j) +. 1e-6 then ok := false
          done
        done
      done;
      !ok)

(* --- generators ---------------------------------------------------------- *)

let test_as_like_connected_and_sized () =
  let g =
    Topology.Generate.as_like ~rng:(rng ()) ~nodes:20 ~latency:lat100_200
  in
  Alcotest.(check int) "20 nodes" 20 (Topology.Graph.node_count g);
  Alcotest.(check bool) "connected" true (Topology.Graph.is_connected g);
  Alcotest.(check bool) "at least a tree" true
    (Topology.Graph.edge_count g >= 19);
  List.iter
    (fun (_, _, w) ->
      Alcotest.(check bool) "hop latency in [100, 200]" true
        (w >= 100. && w <= 200.))
    (Topology.Graph.edges g)

let test_as_like_degree_skew () =
  (* Preferential attachment should produce a clear hub: max degree well
     above the minimum. *)
  let g =
    Topology.Generate.as_like ~rng:(rng ()) ~nodes:40 ~latency:lat100_200
  in
  let degrees =
    Array.init 40 (fun v -> Topology.Graph.degree g v)
  in
  let dmax = Array.fold_left max 0 degrees in
  Alcotest.(check bool) "hub exists" true (dmax >= 5)

let test_regular_shapes () =
  let r = rng () in
  let ring = Topology.Generate.ring ~rng:r ~nodes:6 ~latency:lat100_200 in
  Alcotest.(check int) "ring edges" 6 (Topology.Graph.edge_count ring);
  let star = Topology.Generate.star ~rng:r ~nodes:6 ~latency:lat100_200 in
  Alcotest.(check int) "star edges" 5 (Topology.Graph.edge_count star);
  Alcotest.(check int) "star hub degree" 5 (Topology.Graph.degree star 0);
  let grid = Topology.Generate.grid ~rng:r ~width:3 ~height:2 ~latency:lat100_200 in
  Alcotest.(check int) "grid edges" 7 (Topology.Graph.edge_count grid);
  let clique = Topology.Generate.clique ~rng:r ~nodes:5 ~latency:lat100_200 in
  Alcotest.(check int) "clique edges" 10 (Topology.Graph.edge_count clique);
  List.iter
    (fun g -> Alcotest.(check bool) "connected" true (Topology.Graph.is_connected g))
    [ ring; star; grid; clique ]

let test_headquarters_is_max_degree () =
  let g = Topology.Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 1.); (1, 3, 1.) ] in
  Alcotest.(check int) "hq" 1 (Topology.Generate.headquarters g)

(* --- system view ---------------------------------------------------------- *)

let line_system () =
  (* 0 -- 1 -- 2 -- 3 with 100ms hops; origin at node 0. *)
  let g =
    Topology.Graph.of_edges 4 [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ]
  in
  Topology.System.make ~origin:0 g

let test_within_threshold () =
  let sys = line_system () in
  let dist = Topology.System.within_threshold sys ~tlat:150. in
  Alcotest.(check bool) "self" true dist.(2).(2);
  Alcotest.(check bool) "one hop" true dist.(1).(0);
  Alcotest.(check bool) "two hops too far" false dist.(2).(0);
  let dist250 = Topology.System.within_threshold sys ~tlat:250. in
  Alcotest.(check bool) "two hops within 250" true dist250.(2).(0)

let test_covers () =
  let sys = line_system () in
  Alcotest.(check (list int)) "replica at 1 covers 0,1,2" [ 0; 1; 2 ]
    (Topology.System.covers sys ~tlat:150. 1)

let test_fetch_matrices () =
  let sys = line_system () in
  let local = Topology.System.fetch_matrix sys Topology.System.Route_local in
  Alcotest.(check bool) "self" true local.(2).(2);
  Alcotest.(check bool) "origin" true local.(2).(0);
  Alcotest.(check bool) "not peer" false local.(2).(1);
  let glob_fetch = Topology.System.fetch_matrix sys Topology.System.Route_global in
  Alcotest.(check bool) "global peer" true glob_fetch.(2).(1)

let test_know_matrices () =
  let sys = line_system () in
  let local = Topology.System.know_matrix sys Topology.System.Know_local in
  Alcotest.(check bool) "self" true local.(3).(3);
  Alcotest.(check bool) "not peer" false local.(3).(1);
  let g = Topology.System.know_matrix sys Topology.System.Know_global in
  Alcotest.(check bool) "global" true g.(3).(1)

let test_effective_reach_combines () =
  let sys = line_system () in
  (* Route_local at node 1: can reach itself and origin (0, one hop,
     100 <= 150), but not node 2 even though 2 is within threshold. *)
  let reach =
    Topology.System.effective_reach sys ~tlat:150. Topology.System.Route_local
  in
  Alcotest.(check bool) "self" true reach.(1).(1);
  Alcotest.(check bool) "origin in reach" true reach.(1).(0);
  Alcotest.(check bool) "peer excluded by routing" false reach.(1).(2);
  (* Node 3 is 300ms from the origin: routable but not within latency. *)
  Alcotest.(check bool) "origin too far from 3" false reach.(3).(0)

let test_system_rejects_disconnected () =
  let g = Topology.Graph.of_edges 3 [ (0, 1, 1.) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "System.make: graph must be connected") (fun () ->
      ignore (Topology.System.make g))


(* --- serialization -------------------------------------------------------- *)

let test_topo_io_roundtrip () =
  let g =
    Topology.Generate.as_like ~rng:(rng ()) ~nodes:12 ~latency:lat100_200
  in
  let s = Topology.Topo_io.to_string ~origin:3 g in
  let g2, origin =
    match Topology.Topo_io.parse s with
    | Ok v -> v
    | Error e -> Alcotest.fail (Util.Parse_error.to_string e)
  in
  Alcotest.(check (option int)) "origin" (Some 3) origin;
  Alcotest.(check int) "nodes" 12 (Topology.Graph.node_count g2);
  Alcotest.(check int) "edges" (Topology.Graph.edge_count g)
    (Topology.Graph.edge_count g2);
  List.iter
    (fun (u, v, w) ->
      Alcotest.(check (option (float 1e-6))) "edge weight" (Some w)
        (Topology.Graph.edge_weight g2 u v))
    (Topology.Graph.edges g)

let test_topo_io_load_system () =
  let g = Topology.Graph.of_edges 3 [ (0, 1, 100.); (1, 2, 100.) ] in
  let path = Filename.temp_file "topo" ".csv" in
  Topology.Topo_io.save ~origin:1 g ~path;
  let sys = Topology.Topo_io.load_system_result ~path in
  Sys.remove path;
  match sys with
  | Ok sys ->
    Alcotest.(check int) "origin from file" 1 sys.Topology.System.origin
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e)

let topo_header = "# replica-select topology v1 nodes=3\nu,v,latency_ms\n"

let test_topo_io_structured_errors () =
  (match Topology.Topo_io.parse "nope" with
  | Error e ->
    Alcotest.(check int) "whole-file error" 0 e.Topology.Topo_io.line
  | Ok _ -> Alcotest.fail "garbage must be rejected");
  (match Topology.Topo_io.parse (topo_header ^ "0,1,100\n1,2,nan\n") with
  | Error e ->
    Alcotest.(check int) "NaN latency line" 4 e.Topology.Topo_io.line;
    Alcotest.(check string) "NaN latency message" "non-finite latency"
      e.Topology.Topo_io.msg;
    Alcotest.(check string) "rendered location" "<topology>:4: non-finite latency"
      (Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "NaN latency must be rejected");
  (match Topology.Topo_io.parse (topo_header ^ "0,1,inf\n") with
  | Error e -> Alcotest.(check int) "inf latency line" 3 e.Topology.Topo_io.line
  | Ok _ -> Alcotest.fail "infinite latency must be rejected");
  (match
     Topology.Topo_io.parse
       "# replica-select topology v1 nodes=1000000000000000000\n\
        u,v,latency_ms\n"
   with
  | Error e ->
    Alcotest.(check (pair int string))
      "huge node count" (1, "bad nodes")
      (e.Topology.Topo_io.line, e.Topology.Topo_io.msg)
  | Ok _ -> Alcotest.fail "a huge node count must be rejected");
  (match Topology.Topo_io.parse (topo_header ^ "0,1,-5\n") with
  | Error e ->
    Alcotest.(check string) "negative latency" "negative latency"
      e.Topology.Topo_io.msg
  | Ok _ -> Alcotest.fail "negative latency must be rejected");
  match Topology.Topo_io.parse (topo_header ^ "0,1\n") with
  | Error e ->
    Alcotest.(check string) "truncated record"
      "expected 3 comma-separated fields" e.Topology.Topo_io.msg
  | Ok _ -> Alcotest.fail "truncated record must be rejected"

let test_topo_io_load_result_missing_file () =
  (match Topology.Topo_io.load_result ~path:"/nonexistent/topo.csv" with
  | Error e ->
    Alcotest.(check int) "whole-file error" 0 e.Topology.Topo_io.line;
    Alcotest.(check string) "file carried" "/nonexistent/topo.csv"
      e.Topology.Topo_io.file
  | Ok _ -> Alcotest.fail "missing file must be an error");
  match Topology.Topo_io.load_system_result ~path:"/nonexistent/topo.csv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an error"

let test_topo_io_missing_file_named_once () =
  match Topology.Topo_io.load_result ~path:"/nonexistent/topo.csv" with
  | Error e ->
    Alcotest.(check string) "path named once"
      "/nonexistent/topo.csv: No such file or directory"
      (Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "missing file must be an error"

let test_topo_io_load_system_result_disconnected () =
  (* A parseable file describing a disconnected graph: the System.make
     validation failure must surface as a structured error, not a raise. *)
  let path = Filename.temp_file "topo" ".csv" in
  let oc = open_out path in
  output_string oc "# replica-select topology v1 nodes=3\nu,v,latency_ms\n0,1,100\n";
  close_out oc;
  let r = Topology.Topo_io.load_system_result ~path in
  Sys.remove path;
  match r with
  | Error e -> Alcotest.(check int) "whole-file error" 0 e.Topology.Topo_io.line
  | Ok _ -> Alcotest.fail "disconnected graph must be an error"

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "rejects bad edges" `Quick
            test_graph_rejects_bad_edges;
          Alcotest.test_case "of_edges roundtrip" `Quick
            test_graph_of_edges_roundtrip;
        ] );
      ( "shortest-path",
        [
          Alcotest.test_case "line" `Quick test_dijkstra_line;
          Alcotest.test_case "cheaper path" `Quick
            test_dijkstra_prefers_cheaper_path;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          QCheck_alcotest.to_alcotest prop_dijkstra_matches_floyd_warshall;
          QCheck_alcotest.to_alcotest prop_shortest_paths_metric;
        ] );
      ( "generate",
        [
          Alcotest.test_case "as_like" `Quick test_as_like_connected_and_sized;
          Alcotest.test_case "degree skew" `Quick test_as_like_degree_skew;
          Alcotest.test_case "regular shapes" `Quick test_regular_shapes;
          Alcotest.test_case "headquarters" `Quick
            test_headquarters_is_max_degree;
        ] );
      ( "topo-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_topo_io_roundtrip;
          Alcotest.test_case "load system" `Quick test_topo_io_load_system;
          Alcotest.test_case "structured errors" `Quick
            test_topo_io_structured_errors;
          Alcotest.test_case "missing file" `Quick
            test_topo_io_load_result_missing_file;
          Alcotest.test_case "missing file named once" `Quick
            test_topo_io_missing_file_named_once;
          Alcotest.test_case "disconnected system" `Quick
            test_topo_io_load_system_result_disconnected;
        ] );
      ( "system",
        [
          Alcotest.test_case "within threshold" `Quick test_within_threshold;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "fetch matrices" `Quick test_fetch_matrices;
          Alcotest.test_case "know matrices" `Quick test_know_matrices;
          Alcotest.test_case "effective reach" `Quick
            test_effective_reach_combines;
          Alcotest.test_case "rejects disconnected" `Quick
            test_system_rejects_disconnected;
        ] );
    ]
