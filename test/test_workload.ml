(* Tests for the workload substrate: Zipf fitting, traces, demand
   bucketing, the WEB/GROUP generators, and object aggregation. *)

let rng () = Util.Prng.create ~seed:77

(* --- zipf ---------------------------------------------------------------- *)

let test_harmonic () =
  Alcotest.(check (float 1e-9)) "H_1" 1. (Workload.Zipf.harmonic ~n:1 ~s:1.);
  Alcotest.(check (float 1e-9)) "H_3 s=1" (1. +. 0.5 +. (1. /. 3.))
    (Workload.Zipf.harmonic ~n:3 ~s:1.);
  Alcotest.(check (float 1e-9)) "H_3 s=0" 3. (Workload.Zipf.harmonic ~n:3 ~s:0.)

let test_frequencies_normalized () =
  let f = Workload.Zipf.frequencies ~n:100 ~s:0.8 in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Util.Vecops.sum f);
  for i = 1 to 99 do
    Alcotest.(check bool) "monotone" true (f.(i) <= f.(i - 1))
  done

let test_fit_mandelbrot_web_marginals () =
  (* The paper's WEB marginals: 1000 objects, 300K requests, max 36K,
     min 1. *)
  let m =
    Workload.Zipf.fit_mandelbrot ~n:1000 ~total:300_000. ~max_count:36_000.
      ~min_count:1.
  in
  Alcotest.(check (float 1.)) "rank 1" 36_000. (Workload.Zipf.mandelbrot_count m 1);
  Alcotest.(check (float 0.01)) "rank 1000" 1. (Workload.Zipf.mandelbrot_count m 1000);
  let total = ref 0. in
  for r = 1 to 1000 do
    total := !total +. Workload.Zipf.mandelbrot_count m r
  done;
  Alcotest.(check bool) "total within 0.5%" true
    (Float.abs (!total -. 300_000.) < 1_500.)

let test_counts_preserve_total_and_shape () =
  let m =
    Workload.Zipf.fit_mandelbrot ~n:100 ~total:30_000. ~max_count:3_600.
      ~min_count:1.
  in
  let counts = Workload.Zipf.counts m ~n:100 in
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check bool) "total close" true (abs (total - 30_000) <= 150);
  Alcotest.(check bool) "every rank >= 1" true (Array.for_all (fun c -> c >= 1) counts);
  Alcotest.(check bool) "head biggest" true
    (Array.for_all (fun c -> c <= counts.(0)) counts)

let test_fit_rejects_impossible () =
  (* total >= n * max is unrepresentable *)
  Alcotest.check_raises "too big"
    (Invalid_argument "Zipf.fit_mandelbrot: total out of representable range")
    (fun () ->
      ignore
        (Workload.Zipf.fit_mandelbrot ~n:10 ~total:1000. ~max_count:10.
           ~min_count:1.))

(* --- trace ---------------------------------------------------------------- *)

let test_trace_of_events_sorts () =
  let t =
    Workload.Trace.of_events ~nodes:2 ~objects:3 ~duration_s:10.
      [
        (5., 0, 1, Workload.Trace.Read);
        (1., 1, 2, Workload.Trace.Read);
        (3., 0, 0, Workload.Trace.Write);
      ]
  in
  Alcotest.(check int) "length" 3 (Workload.Trace.length t);
  Alcotest.(check (float 1e-9)) "first time" 1. (Workload.Trace.time t 0);
  Alcotest.(check int) "first node" 1 (Workload.Trace.node t 0);
  Alcotest.(check int) "reads" 2 (Workload.Trace.read_count t);
  Alcotest.(check int) "writes" 1 (Workload.Trace.write_count t)

let test_trace_validation () =
  Alcotest.check_raises "bad node"
    (Invalid_argument "Trace: node out of range") (fun () ->
      ignore
        (Workload.Trace.of_events ~nodes:1 ~objects:1 ~duration_s:1.
           [ (0., 5, 0, Workload.Trace.Read) ]))

let test_trace_remap () =
  let t =
    Workload.Trace.of_events ~nodes:3 ~objects:1 ~duration_s:1.
      [ (0., 0, 0, Workload.Trace.Read); (0.5, 2, 0, Workload.Trace.Read) ]
  in
  let t' = Workload.Trace.remap_nodes t ~mapping:[| 1; 1; 1 |] in
  Alcotest.(check int) "node 0 remapped" 1 (Workload.Trace.node t' 0);
  Alcotest.(check int) "node 2 remapped" 1 (Workload.Trace.node t' 1)

(* --- demand ---------------------------------------------------------------- *)

let test_demand_of_trace_buckets () =
  (* 4 intervals over 8 seconds: interval length 2s. *)
  let t =
    Workload.Trace.of_events ~nodes:2 ~objects:2 ~duration_s:8.
      [
        (0.1, 0, 0, Workload.Trace.Read);
        (1.9, 0, 0, Workload.Trace.Read);
        (2.1, 0, 0, Workload.Trace.Read);
        (7.9, 1, 1, Workload.Trace.Read);
        (3.0, 1, 1, Workload.Trace.Write);
      ]
  in
  let d = Workload.Demand.of_trace ~intervals:4 t in
  Alcotest.(check (float 1e-9)) "interval 0 count" 2.
    (Workload.Demand.read_at d ~node:0 ~interval:0 ~object_id:0);
  Alcotest.(check (float 1e-9)) "interval 1 count" 1.
    (Workload.Demand.read_at d ~node:0 ~interval:1 ~object_id:0);
  Alcotest.(check (float 1e-9)) "absent" 0.
    (Workload.Demand.read_at d ~node:1 ~interval:0 ~object_id:0);
  Alcotest.(check (float 1e-9)) "last interval" 1.
    (Workload.Demand.read_at d ~node:1 ~interval:3 ~object_id:1);
  Alcotest.(check (float 1e-9)) "total reads" 4. (Workload.Demand.total_reads d);
  Alcotest.(check (option int)) "first read of obj 0" (Some 0)
    (Workload.Demand.first_read_interval d 0);
  Alcotest.(check (option int)) "last read of obj 0" (Some 1)
    (Workload.Demand.last_read_interval d 0);
  Alcotest.(check (option int)) "first access of node 1 obj 1" (Some 3)
    (Workload.Demand.first_access_of_node d ~object_id:1 ~node:1)

let test_demand_node_totals () =
  let t =
    Workload.Trace.of_events ~nodes:2 ~objects:1 ~duration_s:4.
      [
        (0., 0, 0, Workload.Trace.Read);
        (1., 0, 0, Workload.Trace.Read);
        (2., 1, 0, Workload.Trace.Read);
      ]
  in
  let d = Workload.Demand.of_trace ~intervals:2 t in
  let totals = Workload.Demand.node_read_totals d in
  Alcotest.(check (float 1e-9)) "node 0" 2. totals.(0);
  Alcotest.(check (float 1e-9)) "node 1" 1. totals.(1)

let test_demand_remap_merges () =
  let t =
    Workload.Trace.of_events ~nodes:3 ~objects:1 ~duration_s:2.
      [
        (0., 0, 0, Workload.Trace.Read);
        (0.5, 1, 0, Workload.Trace.Read);
        (1.5, 2, 0, Workload.Trace.Read);
      ]
  in
  let d = Workload.Demand.of_trace ~intervals:2 t in
  let d' = Workload.Demand.remap_nodes d ~mapping:[| 1; 1; 1 |] in
  Alcotest.(check (float 1e-9)) "merged interval 0" 2.
    (Workload.Demand.read_at d' ~node:1 ~interval:0 ~object_id:0);
  Alcotest.(check (float 1e-9)) "merged interval 1" 1.
    (Workload.Demand.read_at d' ~node:1 ~interval:1 ~object_id:0);
  Alcotest.(check (float 1e-9)) "node 0 empty" 0.
    (Workload.Demand.read_at d' ~node:0 ~interval:0 ~object_id:0);
  Alcotest.(check (float 1e-9)) "total preserved" 3.
    (Workload.Demand.total_reads d')

let test_demand_scale () =
  let t =
    Workload.Trace.of_events ~nodes:1 ~objects:1 ~duration_s:1.
      [ (0., 0, 0, Workload.Trace.Read) ]
  in
  let d = Workload.Demand.of_trace ~intervals:1 t in
  let d' = Workload.Demand.scale_counts d ~factor:2.5 in
  Alcotest.(check (float 1e-9)) "scaled" 2.5 (Workload.Demand.total_reads d')

(* --- generators -------------------------------------------------------------- *)

let small_web_spec =
  Workload.Synthesize.scale_spec Workload.Synthesize.web_spec ~factor:0.1

let small_group_spec =
  Workload.Synthesize.scale_spec Workload.Synthesize.group_spec ~factor:0.01

let test_web_generator_marginals () =
  let t = Workload.Synthesize.web ~rng:(rng ()) small_web_spec in
  Alcotest.(check int) "nodes" 20 (Workload.Trace.node_count t);
  Alcotest.(check int) "objects" 100 (Workload.Trace.object_count t);
  let total = Workload.Trace.length t in
  Alcotest.(check bool) "total near 30000" true (abs (total - 30_000) < 600);
  (* Per-object counts: max should be near the spec's max. *)
  let counts = Array.make 100 0 in
  Workload.Trace.iter
    (fun ~time:_ ~node:_ ~object_id ~kind:_ ->
      counts.(object_id) <- counts.(object_id) + 1)
    t;
  let cmax = Array.fold_left max 0 counts in
  Alcotest.(check bool) "max near 3600" true (abs (cmax - 3_600) < 180);
  let cmin = Array.fold_left min max_int counts in
  Alcotest.(check bool) "tail has rare objects" true (cmin <= 5)

let test_group_generator_marginals () =
  let t = Workload.Synthesize.group ~rng:(rng ()) small_group_spec in
  let objects = Workload.Trace.object_count t in
  let counts = Array.make objects 0 in
  Workload.Trace.iter
    (fun ~time:_ ~node:_ ~object_id ~kind:_ ->
      counts.(object_id) <- counts.(object_id) + 1)
    t;
  let spec = small_group_spec in
  Alcotest.(check bool) "all objects popular" true
    (Array.for_all (fun c -> c >= spec.min_object_requests - 1) counts);
  Alcotest.(check int) "pinned max" spec.max_object_requests counts.(0);
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check bool) "total within 5%" true
    (abs (total - spec.total_requests)
    < (spec.total_requests / 20) + objects)

let test_all_nodes_active () =
  let t = Workload.Synthesize.group ~rng:(rng ()) small_group_spec in
  let active = Array.make 20 false in
  Workload.Trace.iter
    (fun ~time:_ ~node ~object_id:_ ~kind:_ -> active.(node) <- true)
    t;
  Alcotest.(check bool) "all nodes generate requests" true
    (Array.for_all Fun.id active)

let test_node_weights () =
  let w = Workload.Synthesize.node_weights ~rng:(rng ()) ~nodes:10 ~skew:0.8 in
  Alcotest.(check (float 1e-9)) "normalized" 1. (Util.Vecops.sum w);
  Alcotest.(check bool) "uneven" true
    (Array.fold_left Float.max 0. w > 2. *. Array.fold_left Float.min 1. w)

let test_with_writes () =
  let t = Workload.Synthesize.web ~rng:(rng ()) small_web_spec in
  let t' = Workload.Synthesize.with_writes ~rng:(rng ()) ~write_fraction:0.3 t in
  let frac =
    float_of_int (Workload.Trace.write_count t')
    /. float_of_int (Workload.Trace.length t')
  in
  Alcotest.(check bool) "about 30% writes" true (Float.abs (frac -. 0.3) < 0.03)


(* --- trace serialization -------------------------------------------------- *)

let test_trace_io_roundtrip () =
  let t =
    Workload.Trace.of_events ~nodes:3 ~objects:5 ~duration_s:100.
      [
        (1.5, 0, 2, Workload.Trace.Read);
        (2.25, 1, 4, Workload.Trace.Write);
        (99.9, 2, 0, Workload.Trace.Read);
      ]
  in
  let t2 =
    match Workload.Trace_io.parse (Workload.Trace_io.to_string t) with
    | Ok t2 -> t2
    | Error e -> Alcotest.fail (Util.Parse_error.to_string e)
  in
  Alcotest.(check int) "length" (Workload.Trace.length t) (Workload.Trace.length t2);
  Alcotest.(check int) "nodes" 3 (Workload.Trace.node_count t2);
  Alcotest.(check int) "objects" 5 (Workload.Trace.object_count t2);
  Alcotest.(check (float 1e-9)) "duration" 100. (Workload.Trace.duration_s t2);
  for i = 0 to Workload.Trace.length t - 1 do
    Alcotest.(check (float 1e-9)) "time" (Workload.Trace.time t i)
      (Workload.Trace.time t2 i);
    Alcotest.(check int) "node" (Workload.Trace.node t i) (Workload.Trace.node t2 i);
    Alcotest.(check int) "object" (Workload.Trace.object_id t i)
      (Workload.Trace.object_id t2 i);
    Alcotest.(check bool) "kind" true
      (Workload.Trace.kind t i = Workload.Trace.kind t2 i)
  done

let test_trace_io_file_roundtrip () =
  let t = Workload.Synthesize.web ~rng:(rng ()) small_web_spec in
  let path = Filename.temp_file "trace" ".csv" in
  Workload.Trace_io.save t ~path;
  let t2 = Workload.Trace_io.load_result ~path in
  Sys.remove path;
  match t2 with
  | Ok t2 ->
    Alcotest.(check int) "length preserved" (Workload.Trace.length t)
      (Workload.Trace.length t2)
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e)

let trace_header =
  "# replica-select trace v1 nodes=2 objects=2 duration_s=10\n\
   time_s,node,object,kind\n"

let test_trace_io_structured_errors () =
  (match Workload.Trace_io.parse "garbage" with
  | Error e ->
    Alcotest.(check int) "whole-file error" 0 e.Workload.Trace_io.line
  | Ok _ -> Alcotest.fail "garbage must be rejected");
  (match
     Workload.Trace_io.parse
       "# replica-select trace v1 nodes=2 objects=2\ntime_s,node,object,kind\n"
   with
  | Error e ->
    Alcotest.(check int) "header error line" 1 e.Workload.Trace_io.line;
    Alcotest.(check string) "missing field named"
      "missing header field duration_s" e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "missing duration must be rejected");
  (match Workload.Trace_io.parse (trace_header ^ "nan,0,0,r\n") with
  | Error e ->
    Alcotest.(check int) "NaN time line" 3 e.Workload.Trace_io.line;
    Alcotest.(check string) "NaN time message" "non-finite time"
      e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "NaN timestamp must be rejected");
  (match Workload.Trace_io.parse (trace_header ^ "-1,0,0,r\n") with
  | Error e ->
    Alcotest.(check string) "negative time" "negative time"
      e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "negative timestamp must be rejected");
  (match Workload.Trace_io.parse (trace_header ^ "1.0,5,0,r\n") with
  | Error e ->
    Alcotest.(check string) "node range" "node 5 out of range"
      e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "out-of-range node must be rejected");
  (match Workload.Trace_io.parse (trace_header ^ "1.0,0,7,w\n") with
  | Error e ->
    Alcotest.(check string) "object range" "object 7 out of range"
      e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "out-of-range object must be rejected");
  (match Workload.Trace_io.parse (trace_header ^ "1.0,0,0,x\n") with
  | Error e ->
    Alcotest.(check int) "unknown kind line" 3 e.Workload.Trace_io.line;
    Alcotest.(check string) "unknown kind" "unknown kind x"
      e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "unknown event kind must be rejected");
  match Workload.Trace_io.parse (trace_header ^ "1.0,0,0\n") with
  | Error e ->
    Alcotest.(check string) "truncated record"
      "expected 4 comma-separated fields" e.Workload.Trace_io.msg
  | Ok _ -> Alcotest.fail "truncated record must be rejected"

let test_trace_io_load_result_missing_file () =
  match Workload.Trace_io.load_result ~path:"/nonexistent/trace.csv" with
  | Error e ->
    Alcotest.(check int) "whole-file error" 0 e.Workload.Trace_io.line;
    Alcotest.(check string) "file carried" "/nonexistent/trace.csv"
      e.Workload.Trace_io.file
  | Ok _ -> Alcotest.fail "missing file must be an error"

let test_trace_io_missing_file_named_once () =
  match Workload.Trace_io.load_result ~path:"/nonexistent/trace.csv" with
  | Error e ->
    Alcotest.(check string) "path named once"
      "/nonexistent/trace.csv: No such file or directory"
      (Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "missing file must be an error"


(* --- profiling ------------------------------------------------------------ *)

let test_profile_counts () =
  let t =
    Workload.Trace.of_events ~nodes:3 ~objects:4 ~duration_s:10.
      [
        (0., 0, 0, Workload.Trace.Read);
        (1., 0, 0, Workload.Trace.Read);
        (2., 0, 1, Workload.Trace.Read);
        (3., 1, 0, Workload.Trace.Read);
        (4., 1, 0, Workload.Trace.Write);
      ]
  in
  let p = Workload.Profile.of_trace t in
  Alcotest.(check int) "reads" 4 p.Workload.Profile.reads;
  Alcotest.(check int) "writes" 1 p.Workload.Profile.writes;
  Alcotest.(check int) "objects touched" 2 p.Workload.Profile.objects_touched;
  Alcotest.(check int) "top object" 3 p.Workload.Profile.top_object_reads;
  Alcotest.(check int) "active nodes" 2 p.Workload.Profile.active_nodes;
  (* Distinct (site, object) pairs: (0,0), (0,1), (1,0) -> 3 of 4 reads. *)
  Alcotest.(check (float 1e-9)) "cold misses" 0.75
    p.Workload.Profile.cold_miss_fraction;
  (* Node 1: 1 read, 1 first access -> worst cold-miss fraction 1. *)
  Alcotest.(check (float 1e-9)) "worst user" 1.
    p.Workload.Profile.worst_user_cold_miss_fraction;
  Alcotest.(check int) "max working set" 2 p.Workload.Profile.max_working_set

let test_profile_locality_reduces_working_sets () =
  (* The locality model concentrates tail objects, shrinking working sets
     and cold-miss fractions. *)
  let gen h seed =
    let rng = Util.Prng.create ~seed in
    Workload.Synthesize.web ~rng
      { small_web_spec with locality_h = h }
  in
  let without = Workload.Profile.of_trace (gen 0. 5) in
  let with_loc = Workload.Profile.of_trace (gen 300. 5) in
  Alcotest.(check bool) "smaller mean working set" true
    (with_loc.Workload.Profile.mean_working_set
    < without.Workload.Profile.mean_working_set);
  Alcotest.(check bool) "fewer cold misses" true
    (with_loc.Workload.Profile.cold_miss_fraction
    < without.Workload.Profile.cold_miss_fraction)

(* --- aggregation ---------------------------------------------------------------- *)

let test_aggregate_exact_merges_identical () =
  (* Objects 0 and 1 have identical patterns; object 2 differs. *)
  let cell n i c : Workload.Demand.cell = { node = n; interval = i; count = c } in
  let d =
    Workload.Demand.create ~nodes:2 ~intervals:2 ~interval_s:3600.
      ~reads:
        [|
          [| cell 0 0 2.; cell 1 1 1. |];
          [| cell 0 0 2.; cell 1 1 1. |];
          [| cell 0 1 5. |];
        |]
      ()
  in
  let m = Workload.Aggregate.exact d in
  Alcotest.(check int) "two classes" 2 m.demand.objects;
  Alcotest.(check int) "obj0 and obj1 same class" m.class_of_object.(0)
    m.class_of_object.(1);
  Alcotest.(check bool) "obj2 different" true
    (m.class_of_object.(2) <> m.class_of_object.(0));
  (* Weighted total demand must be preserved. *)
  Alcotest.(check (float 1e-9)) "total preserved"
    (Workload.Demand.total_reads d)
    (Workload.Demand.total_reads m.demand);
  let cls = m.class_of_object.(0) in
  Alcotest.(check (float 1e-9)) "class weight" 2. m.demand.weight.(cls)

let test_aggregate_by_popularity () =
  let t = Workload.Synthesize.web ~rng:(rng ()) small_web_spec in
  let d = Workload.Demand.of_trace ~intervals:6 t in
  let m = Workload.Aggregate.by_popularity ~classes:8 d in
  Alcotest.(check bool) "fewer classes" true (m.demand.objects <= 12);
  Alcotest.(check bool) "total approximately preserved" true
    (Float.abs
       (Workload.Demand.total_reads m.demand -. Workload.Demand.total_reads d)
    < 1e-6 *. Workload.Demand.total_reads d)

let prop_aggregate_preserves_totals =
  QCheck2.Test.make ~count:30 ~name:"aggregation preserves weighted demand"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let r = Util.Prng.create ~seed in
      let spec =
        Workload.Synthesize.scale_spec Workload.Synthesize.web_spec
          ~factor:0.02
      in
      let t = Workload.Synthesize.web ~rng:r spec in
      let d = Workload.Demand.of_trace ~intervals:4 t in
      let exact = Workload.Aggregate.exact d in
      let pop = Workload.Aggregate.by_popularity ~classes:5 d in
      let total = Workload.Demand.total_reads d in
      Float.abs (Workload.Demand.total_reads exact.demand -. total)
      < 1e-6 *. total
      && Float.abs (Workload.Demand.total_reads pop.demand -. total)
         < 1e-6 *. total)

let prop_zipf_frequencies_normalized_monotone =
  QCheck2.Test.make ~count:200
    ~name:"zipf frequencies are a monotone probability distribution"
    QCheck2.Gen.(tup2 (int_range 1 200) (float_range 0. 3.))
    (fun (n, s) ->
      let f = Workload.Zipf.frequencies ~n ~s in
      let sum = Array.fold_left ( +. ) 0. f in
      Array.length f = n
      && Float.abs (sum -. 1.) < 1e-9
      && Array.for_all (fun p -> p > 0.) f
      && (let mono = ref true in
          for i = 0 to n - 2 do
            if f.(i) < f.(i + 1) then mono := false
          done;
          !mono))

let prop_zipf_fit_and_counts =
  QCheck2.Test.make ~count:100
    ~name:"mandelbrot fit honors marginals; integer counts preserve total"
    QCheck2.Gen.(
      tup4 (int_range 2 300) (float_range 1. 5.) (float_range 2. 10_000.)
        (float_range 0.05 0.95))
    (fun (n, min_count, spread, t) ->
      let max_count = min_count +. spread in
      let nf = float_of_int n in
      (* Any total strictly between the degenerate end points is a legal
         request (out-of-reach totals are clamped by the fitter). *)
      let total =
        (nf *. min_count) +. (t *. nf *. (max_count -. min_count))
      in
      let m = Workload.Zipf.fit_mandelbrot ~n ~total ~max_count ~min_count in
      let head = Workload.Zipf.mandelbrot_count m 1 in
      let tail = Workload.Zipf.mandelbrot_count m n in
      let raw_total = ref 0. in
      let mono = ref true and prev = ref infinity in
      for r = 1 to n do
        let c = Workload.Zipf.mandelbrot_count m r in
        raw_total := !raw_total +. c;
        if c > !prev +. 1e-9 then mono := false;
        prev := c
      done;
      let counts = Workload.Zipf.counts m ~n in
      let count_total = float_of_int (Array.fold_left ( + ) 0 counts) in
      Float.abs (head -. max_count) < 1e-6 *. max_count
      (* The tail marginal is found by root-finding; in the clamped
         near-flat regime it is honored to ~0.5% relative. *)
      && Float.abs (tail -. min_count) < 1e-2 *. min_count
      && !mono
      && Array.length counts = n
      && Array.for_all (fun c -> c >= 1) counts
      (* min_count >= 1 keeps every floor positive, so the largest-
         fractional-part redistribution lands on the law's rounded
         total (up to the rounding knife-edge of the float sum). *)
      && Float.abs (count_total -. !raw_total) <= 0.5 +. 1e-9 *. !raw_total)

(* --- incremental demand ----------------------------------------------------- *)

(* Demand.extend is an O(delta) continuation of of_trace: splitting any
   trace at an interval boundary and folding the suffix through extend
   must reproduce the whole-trace demand byte for byte. Exact-float
   arithmetic throughout: interval width 16s, event times multiples of
   0.25, so bucketing never sits on a rounding knife-edge. *)
let prop_demand_extend_equals_of_trace =
  QCheck2.Test.make ~count:200
    ~name:"Demand.extend = of_trace on the concatenated trace"
    QCheck2.Gen.(
      tup4 (int_range 2 8) (int_range 1 7) (int_range 0 120)
        (int_range 0 1_000_000))
    (fun (total_intervals, split_raw, nevents, seed) ->
      let interval_s = 16. in
      let duration_s = float_of_int total_intervals *. interval_s in
      let split = 1 + (split_raw mod (total_intervals - 1)) in
      let rng = ref seed in
      let rand m =
        rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
        !rng mod m
      in
      let nodes = 2 + rand 4 and objects = 1 + rand 8 in
      let events =
        List.init nevents (fun _ ->
            let time = 0.25 *. float_of_int (rand (total_intervals * 64)) in
            let kind =
              if rand 10 = 0 then Workload.Trace.Write else Workload.Trace.Read
            in
            (time, rand nodes, rand objects, kind))
      in
      let trace =
        Workload.Trace.of_events ~nodes ~objects ~duration_s events
      in
      let full = Workload.Demand.of_trace ~intervals:total_intervals trace in
      let boundary = float_of_int split *. interval_s in
      let n = Workload.Trace.length trace in
      let cut = ref 0 in
      while !cut < n && Workload.Trace.time trace !cut < boundary do
        incr cut
      done;
      let prefix = Workload.Trace.sub trace ~lo:0 ~hi:!cut ~duration_s:boundary in
      let suffix = Workload.Trace.sub trace ~lo:!cut ~hi:n ~duration_s in
      let d0 =
        Workload.Demand.of_trace ~interval_s ~intervals:split prefix
      in
      let d = Workload.Demand.extend d0 suffix in
      Marshal.to_string d [ Marshal.No_sharing ]
      = Marshal.to_string full [ Marshal.No_sharing ])

let test_demand_extend_rejects_bad_horizon () =
  let t =
    Workload.Trace.of_events ~nodes:2 ~objects:1 ~duration_s:8.
      [ (1., 0, 0, Workload.Trace.Read) ]
  in
  let d = Workload.Demand.of_trace ~intervals:4 t in
  (* A "continuation" whose horizon does not grow is rejected. *)
  let bad = Workload.Trace.sub t ~lo:0 ~hi:1 ~duration_s:8. in
  Alcotest.(check bool) "same-horizon delta rejected" true
    (match Workload.Demand.extend d bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_incremental_stats () =
  let t =
    Workload.Trace.of_events ~nodes:2 ~objects:3 ~duration_s:8.
      [
        (0.5, 0, 0, Workload.Trace.Read);
        (2.5, 1, 1, Workload.Trace.Read);
        (3.0, 0, 1, Workload.Trace.Write);
        (6.5, 1, 2, Workload.Trace.Read);
      ]
  in
  (* Two chunks of two intervals each (2s buckets). *)
  let c1 = Workload.Trace.sub t ~lo:0 ~hi:2 ~duration_s:4. in
  let c2 = Workload.Trace.sub t ~lo:2 ~hi:4 ~duration_s:8. in
  let i0 = Workload.Incremental.create ~nodes:2 ~interval_s:2. in
  let i1 = Workload.Incremental.extend i0 c1 in
  let i2 = Workload.Incremental.extend i1 c2 in
  Alcotest.(check int) "intervals" 4 (Workload.Incremental.intervals i2);
  Alcotest.(check int) "events" 4 (Workload.Incremental.events i2);
  (* Object 0's only read is in interval 0, outside a 2-interval window
     ending at interval 3; objects 1 and 2 are inside it? Object 1's
     last read is interval 1 — also outside. Only object 2 qualifies. *)
  Alcotest.(check int) "working set (window 2)" 1
    (Workload.Incremental.working_set i2 ~window:2)

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "frequencies" `Quick test_frequencies_normalized;
          Alcotest.test_case "fit WEB marginals" `Quick
            test_fit_mandelbrot_web_marginals;
          Alcotest.test_case "integer counts" `Quick
            test_counts_preserve_total_and_shape;
          Alcotest.test_case "rejects impossible fit" `Quick
            test_fit_rejects_impossible;
          QCheck_alcotest.to_alcotest prop_zipf_frequencies_normalized_monotone;
          QCheck_alcotest.to_alcotest prop_zipf_fit_and_counts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sorting" `Quick test_trace_of_events_sorts;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "remap" `Quick test_trace_remap;
        ] );
      ( "demand",
        [
          Alcotest.test_case "bucketing" `Quick test_demand_of_trace_buckets;
          Alcotest.test_case "node totals" `Quick test_demand_node_totals;
          Alcotest.test_case "remap merges" `Quick test_demand_remap_merges;
          Alcotest.test_case "scale" `Quick test_demand_scale;
        ] );
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest prop_demand_extend_equals_of_trace;
          Alcotest.test_case "rejects stale horizon" `Quick
            test_demand_extend_rejects_bad_horizon;
          Alcotest.test_case "running stats" `Quick test_incremental_stats;
        ] );
      ( "generators",
        [
          Alcotest.test_case "WEB marginals" `Quick test_web_generator_marginals;
          Alcotest.test_case "GROUP marginals" `Quick
            test_group_generator_marginals;
          Alcotest.test_case "all nodes active" `Quick test_all_nodes_active;
          Alcotest.test_case "node weights" `Quick test_node_weights;
          Alcotest.test_case "write injection" `Quick test_with_writes;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "locality effect" `Quick
            test_profile_locality_reduces_working_sets;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick
            test_trace_io_file_roundtrip;
          Alcotest.test_case "structured errors" `Quick
            test_trace_io_structured_errors;
          Alcotest.test_case "missing file" `Quick
            test_trace_io_load_result_missing_file;
          Alcotest.test_case "missing file named once" `Quick
            test_trace_io_missing_file_named_once;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "exact merge" `Quick
            test_aggregate_exact_merges_identical;
          Alcotest.test_case "popularity buckets" `Quick
            test_aggregate_by_popularity;
          QCheck_alcotest.to_alcotest prop_aggregate_preserves_totals;
        ] );
    ]
