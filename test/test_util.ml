(* Tests for the utility substrate: PRNG, priority queue, vector helpers,
   and statistics. *)

let test_prng_determinism () =
  let a = Util.Prng.create ~seed:42 and b = Util.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Prng.bits64 a) (Util.Prng.bits64 b)
  done

let test_prng_copy () =
  let a = Util.Prng.create ~seed:7 in
  ignore (Util.Prng.bits64 a);
  let b = Util.Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy tracks original" (Util.Prng.bits64 a)
      (Util.Prng.bits64 b)
  done

let test_prng_split_independence () =
  let a = Util.Prng.create ~seed:1 in
  let child = Util.Prng.split a in
  (* Drawing from the child must not perturb the parent's future stream
     relative to a parent that split and then ignored the child. *)
  let a' = Util.Prng.create ~seed:1 in
  ignore (Util.Prng.split a');
  for _ = 1 to 20 do
    ignore (Util.Prng.bits64 child)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "parent unaffected" (Util.Prng.bits64 a')
      (Util.Prng.bits64 a)
  done

let test_prng_int_range () =
  let rng = Util.Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Util.Prng.create ~seed:3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Util.Prng.int rng 0))

let test_prng_uniformity () =
  (* Chi-squared-ish sanity: 10 buckets, 10k draws, each bucket within
     30% of expectation. *)
  let rng = Util.Prng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near 1000" true (c > 700 && c < 1300))
    buckets

let test_pick_weighted () =
  let rng = Util.Prng.create ~seed:5 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Util.Prng.pick_weighted rng ~weights:[| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let frac i = float_of_int counts.(i) /. total in
  Alcotest.(check bool) "w0 ~ 0.1" true (Float.abs (frac 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "w1 ~ 0.2" true (Float.abs (frac 1 -. 0.2) < 0.02);
  Alcotest.(check bool) "w2 ~ 0.7" true (Float.abs (frac 2 -. 0.7) < 0.02)

let test_pick_weighted_zero_head () =
  let rng = Util.Prng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "skips zero-weight head" 1
      (Util.Prng.pick_weighted rng ~weights:[| 0.; 3. |])
  done

let test_shuffle_is_permutation () =
  let rng = Util.Prng.create ~seed:9 in
  let a = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* --- priority queue --------------------------------------------------- *)

let test_pqueue_ordering () =
  let h = Util.Pqueue.create () in
  let rng = Util.Prng.create ~seed:13 in
  let items = Array.init 500 (fun _ -> Util.Prng.float rng 100.) in
  Array.iteri (fun i p -> Util.Pqueue.push h p i) items;
  let last = ref neg_infinity in
  let popped = ref 0 in
  let rec drain () =
    match Util.Pqueue.pop_min h with
    | None -> ()
    | Some (p, _) ->
      Alcotest.(check bool) "non-decreasing" true (p >= !last);
      last := p;
      incr popped;
      drain ()
  in
  drain ();
  Alcotest.(check int) "all popped" 500 !popped

let test_pqueue_empty () =
  let h = Util.Pqueue.create () in
  Alcotest.(check bool) "empty" true (Util.Pqueue.is_empty h);
  Alcotest.(check bool) "pop none" true (Util.Pqueue.pop_min h = None);
  Util.Pqueue.push h 1. "a";
  Alcotest.(check int) "length" 1 (Util.Pqueue.length h)

let prop_pqueue_matches_sort =
  QCheck2.Test.make ~count:100 ~name:"pqueue pops in sorted order"
    QCheck2.Gen.(list_size (int_range 0 60) (float_range (-50.) 50.))
    (fun floats ->
      let h = Util.Pqueue.create () in
      List.iteri (fun i p -> Util.Pqueue.push h p i) floats;
      let rec drain acc =
        match Util.Pqueue.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare floats)

(* Interleaved pushes and pops against a sorted-list reference model:
   peek/pop must always return the model's minimum, and the multiset
   of priorities pushed must round-trip through the heap exactly. *)
let prop_pqueue_model =
  QCheck2.Test.make ~count:100
    ~name:"pqueue matches a sorted-list model under interleaved ops"
    QCheck2.Gen.(
      list_size (int_range 0 100)
        (oneof [ map Option.some (float_range (-100.) 100.); return None ]))
    (fun ops ->
      let h = Util.Pqueue.create () in
      let model = ref [] (* sorted ascending *) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          match op with
          | Some p ->
            Util.Pqueue.push h p ();
            model := List.sort compare (p :: !model)
          | None -> (
            check
              (Option.map fst (Util.Pqueue.peek_min h)
              = (match !model with [] -> None | p :: _ -> Some p));
            match (Util.Pqueue.pop_min h, !model) with
            | None, [] -> ()
            | Some (p, ()), m :: rest ->
              check (p = m);
              model := rest
            | None, _ :: _ | Some _, [] -> check false))
        ops;
      check (Util.Pqueue.length h = List.length !model);
      let rec drain acc =
        match Util.Pqueue.pop_min h with
        | None -> List.rev acc
        | Some (p, ()) -> drain (p :: acc)
      in
      check (drain [] = !model);
      !ok)

(* --- parallel map ------------------------------------------------------- *)

let test_parallel_order_preserved () =
  let inputs = List.init 20 Fun.id in
  let expected = List.map (fun i -> i * i) inputs in
  Alcotest.(check (list int))
    "jobs=1 (sequential path)" expected
    (Util.Parallel.map_values ~jobs:1 ~f:(fun i -> i * i) inputs);
  Alcotest.(check (list int))
    "jobs=3 (worker pool)" expected
    (Util.Parallel.map_values ~jobs:3 ~f:(fun i -> i * i) inputs);
  Alcotest.(check (list int))
    "more workers than tasks" [ 4; 9 ]
    (Util.Parallel.map_values ~jobs:8 ~f:(fun i -> i * i) [ 2; 3 ])

let test_parallel_empty_and_single () =
  Alcotest.(check (list int))
    "empty" []
    (Util.Parallel.map_values ~jobs:4 ~f:Fun.id []);
  Alcotest.(check (list string))
    "single task" [ "x!" ]
    (Util.Parallel.map_values ~jobs:4 ~f:(fun s -> s ^ "!") [ "x" ])

let test_parallel_task_failure () =
  match
    Util.Parallel.map_values ~jobs:3
      ~f:(fun i -> if i = 2 then failwith "boom" else i)
      [ 0; 1; 2; 3 ]
  with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Util.Parallel.Task_failed { index; message } ->
    Alcotest.(check int) "failing task index" 2 index;
    let contains ~needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      "message carries the exception" true
      (contains ~needle:"boom" message)

let test_parallel_worker_crash_fallback () =
  if Util.Parallel.fork_available then begin
    (* A worker that dies without replying (here: [_exit] mid-task) must
       be detected via EOF on its pipe; the parent then recomputes the
       lost task inline, so the caller still sees every result. *)
    let parent = Unix.getpid () in
    let f i =
      if i = 1 && Unix.getpid () <> parent then Unix._exit 7 else i * 10
    in
    Alcotest.(check (list int))
      "crashed worker's task recomputed inline" [ 0; 10; 20; 30 ]
      (Util.Parallel.map_values ~jobs:2 ~f [ 0; 1; 2; 3 ])
  end

let test_parallel_timeout () =
  if Util.Parallel.fork_available then
    match
      Util.Parallel.map_values ~jobs:2 ~timeout_s:0.3
        ~f:(fun i ->
          if i = 1 then Unix.sleepf 30.;
          i)
        [ 0; 1; 2 ]
    with
    | _ -> Alcotest.fail "expected Task_timeout"
    | exception Util.Parallel.Task_timeout { index; _ } ->
      Alcotest.(check int) "timed-out task index" 1 index

(* --- vector ops -------------------------------------------------------- *)

let test_vecops () =
  Alcotest.(check (float 1e-9)) "dot" 11. (Util.Vecops.dot [| 1.; 2. |] [| 3.; 4. |]);
  let y = [| 1.; 1. |] in
  Util.Vecops.axpy 2. [| 1.; 2. |] y;
  Alcotest.(check (float 1e-9)) "axpy0" 3. y.(0);
  Alcotest.(check (float 1e-9)) "axpy1" 5. y.(1);
  Alcotest.(check (float 1e-9)) "norm_inf" 5. (Util.Vecops.norm_inf [| -5.; 3. |]);
  Alcotest.(check (float 1e-9)) "clamp lo" 0. (Util.Vecops.clamp (-1.) ~lo:0. ~hi:1.);
  Alcotest.(check (float 1e-9)) "clamp hi" 1. (Util.Vecops.clamp 2. ~lo:0. ~hi:1.);
  Alcotest.(check (float 1e-9)) "sum" 6. (Util.Vecops.sum [| 1.; 2.; 3. |])

let test_kahan_sum_precision () =
  (* 10^7 additions of 0.1 stay within 1e-6 of the exact value. *)
  let xs = Array.make 10_000_000 0.1 in
  let s = Util.Vecops.sum xs in
  Alcotest.(check bool) "compensated" true (Float.abs (s -. 1_000_000.) < 1e-6)

(* --- stats ------------------------------------------------------------- *)

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "median" 3. (Util.Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p0" 1. (Util.Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Util.Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25" 2. (Util.Stats.percentile xs 25.)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independence;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int rejects <= 0" `Quick
            test_prng_int_rejects_nonpositive;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "pick_weighted" `Quick test_pick_weighted;
          Alcotest.test_case "pick_weighted zero head" `Quick
            test_pick_weighted_zero_head;
          Alcotest.test_case "shuffle permutation" `Quick
            test_shuffle_is_permutation;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          QCheck_alcotest.to_alcotest prop_pqueue_matches_sort;
          QCheck_alcotest.to_alcotest prop_pqueue_model;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "order preserved" `Quick
            test_parallel_order_preserved;
          Alcotest.test_case "empty and single" `Quick
            test_parallel_empty_and_single;
          Alcotest.test_case "task failure propagates" `Quick
            test_parallel_task_failure;
          Alcotest.test_case "worker crash falls back inline" `Quick
            test_parallel_worker_crash_fallback;
          Alcotest.test_case "timeout kills stuck worker" `Quick
            test_parallel_timeout;
        ] );
      ( "vecops",
        [
          Alcotest.test_case "basics" `Quick test_vecops;
          Alcotest.test_case "kahan sum" `Slow test_kahan_sum_precision;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
        ] );
    ]
