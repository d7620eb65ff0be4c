(* Fault-injection suite: drives the worker supervisor, the solver
   fallback chain, and the checkpoint journal through deterministic
   injected failures (Util.Faults) and checks that every recovered sweep
   is byte-identical to an unfaulted golden run. The journal group also
   checks that a journal is never resumed into another instance's sweep
   or from an older journal version, and that the loader names each kind
   of defect.

   By default each scenario runs at jobs=1 and jobs=4; setting
   FAULTS_JOBS=<n> pins the pool width (scripts/check.sh uses this to
   gate both widths explicitly). *)

module P = Bounds.Pipeline
module F = Util.Faults

let jobs_under_test =
  match Sys.getenv_opt "FAULTS_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> [ n ]
    | Some _ | None -> [ 1; 4 ])
  | None -> [ 1; 4 ]

(* --- fixture (same tiny line system as test_bounds) ---------------------- *)

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

let qos_spec ?costs () =
  Mcperf.Spec.make ~system:(line_system ()) ~demand:(tail_demand ()) ?costs
    ~goal:(Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 1.0 })
    ()

let std_fractions = [ 0.5; 0.75; 1.0 ]

let classes =
  [
    ("general", Mcperf.Classes.general);
    ("caching", Mcperf.Classes.caching);
    ("storage-constrained", Mcperf.Classes.storage_constrained);
  ]

let run_sweep ?jobs ?solver ?timeout_s ?journal ?progress
    ?(fractions = std_fractions) ?(spec = qos_spec ()) () =
  let cfg =
    {
      P.Sweep_config.default with
      P.Sweep_config.jobs = Option.value jobs ~default:1;
      solver = Option.value solver ~default:P.Auto;
      timeout_s;
      journal;
      progress;
    }
  in
  P.sweep_classes cfg spec ~fractions classes

(* Everything a sweep reports except wall-clock and the solve-path tags:
   recovery may change *how* a cell was solved, never *what* it found.
   [No_sharing] keeps the digest structural — results that crossed a
   worker pipe or the journal lose/gain internal block sharing, which
   would otherwise change the bytes of equal values. *)
let signature (sw : P.sweep) =
  let proj =
    List.map
      (fun (name, series) ->
        ( name,
          List.map
            (fun (x, (t : P.t)) ->
              ( x,
                t.P.feasible,
                t.P.lower_bound,
                t.P.exact,
                t.P.lp_iterations,
                t.P.gap,
                (match t.P.rounded with
                | Some r ->
                  Some r.Rounding.Round.evaluation.Mcperf.Costing.total
                | None -> None),
                t.P.max_feasible_qos ))
            series ))
      sw.P.per_class
  in
  Digest.to_hex (Digest.string (Marshal.to_string proj [ Marshal.No_sharing ]))

let golden = lazy (signature (run_sweep ~jobs:1 ()))

let fo_solver =
  P.First_order
    { P.default_pdhg_options with Lp.Pdhg.max_iters = 4_000; rel_tol = 1e-6 }

let fo_golden = lazy (run_sweep ~jobs:1 ~solver:fo_solver ())

let with_spec text f =
  (match F.parse_result text with
  | Ok s -> F.install s
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e));
  Fun.protect ~finally:(fun () -> F.install F.none) f

(* --- spec parsing and the deterministic coin ----------------------------- *)

let test_parse_roundtrip () =
  (match F.parse_result "" with
  | Ok s -> Alcotest.(check bool) "empty is none" true (F.is_none s)
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e));
  let text = "seed=42,crash=0.25,crash_every=3,stall=0.1,stall_s=0.2,diverge=0.5" in
  (match F.parse_result text with
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e)
  | Ok spec -> (
    Alcotest.(check int) "seed" 42 spec.F.seed;
    Alcotest.(check (float 1e-12)) "crash" 0.25 spec.F.crash_prob;
    Alcotest.(check int) "crash_every" 3 spec.F.crash_every;
    Alcotest.(check (float 1e-12)) "stall_s" 0.2 spec.F.stall_s;
    match F.parse_result (F.to_string spec) with
    | Ok spec2 -> Alcotest.(check bool) "round trip" true (spec = spec2)
    | Error e -> Alcotest.fail (Util.Parse_error.to_string e)));
  (match F.parse_result "crash=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probability above 1 must be rejected");
  (match F.parse_result "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be rejected");
  match F.parse_result "crash" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing '=' must be rejected"

let test_decide_deterministic () =
  let spec =
    match F.parse_result "seed=11,crash=0.3" with
    | Ok s -> s
    | Error e -> Alcotest.fail (Util.Parse_error.to_string e)
  in
  let keys = List.init 200 (fun i -> Printf.sprintf "cell-%d" i) in
  let flip s k = F.decide s ~kind:"crash" ~key:k ~prob:s.F.crash_prob in
  let picks = List.map (flip spec) keys in
  Alcotest.(check (list bool)) "same inputs, same answer" picks
    (List.map (flip spec) keys);
  let hits = List.length (List.filter Fun.id picks) in
  Alcotest.(check bool) "hit rate near the probability" true
    (hits > 20 && hits < 120);
  let picks2 = List.map (flip { spec with F.seed = 12 }) keys in
  Alcotest.(check bool) "seed changes the fault set" true (picks <> picks2)

(* --- worker supervision -------------------------------------------------- *)

let test_crash_recovery jobs () =
  let clean = Lazy.force golden in
  with_spec "seed=3,crash=1" (fun () ->
      let sw = run_sweep ~jobs () in
      Alcotest.(check string) "identical to unfaulted run" clean (signature sw);
      if jobs > 1 && Util.Parallel.fork_available then
        Alcotest.(check bool) "supervisor saw worker deaths" true
          (sw.P.pool.Util.Parallel.worker_deaths >= 1))

let test_crash_every jobs () =
  let clean = Lazy.force golden in
  with_spec "seed=9,crash_every=2" (fun () ->
      let sw = run_sweep ~jobs () in
      Alcotest.(check string) "identical to unfaulted run" clean (signature sw))

let test_stall_timeout jobs () =
  let clean = Lazy.force golden in
  with_spec "seed=4,stall=1,stall_s=1" (fun () ->
      let sw = run_sweep ~jobs ~timeout_s:0.35 () in
      Alcotest.(check string) "identical to unfaulted run" clean (signature sw);
      if jobs > 1 && Util.Parallel.fork_available then
        Alcotest.(check bool) "timeout supervision fired" true
          (sw.P.pool.Util.Parallel.timeouts >= 1))

let test_pool_crash_bookkeeping () =
  if Util.Parallel.fork_available then
    with_spec "seed=1,crash=1" (fun () ->
        let tasks = List.init 12 Fun.id in
        let values =
          Util.Parallel.map_values ~jobs:3
            ~f:(fun i ->
              F.crash_point ~key:(string_of_int i);
              i * 7)
            tasks
        in
        Alcotest.(check (list int)) "all values recovered"
          (List.map (fun i -> i * 7) tasks)
          values;
        let st = Util.Parallel.last_pool_stats () in
        Alcotest.(check bool) "deaths recorded" true
          (st.Util.Parallel.worker_deaths >= 1);
        Alcotest.(check bool) "dead workers respawned" true
          (st.Util.Parallel.respawns >= 1);
        Alcotest.(check bool) "deaths were recovered" true
          (st.Util.Parallel.task_retries + st.Util.Parallel.inline_recoveries
          >= 1))

let test_pool_mixed_deaths () =
  (* Every first attempt dies: the worker [_exit]s mid-task. Supervision
     must retry everything to completion with the sequential answer,
     while the counters show the deaths, the respawns that replaced the
     dead workers and the retries. Six tasks on three slots stay within
     the respawn budget (max 4 (2 * slots) = 6), so the pool never
     degrades to running in the parent. *)
  if Util.Parallel.fork_available then begin
    F.install F.none;
    let tasks = [ 0; 1; 2; 3; 4; 5 ] in
    let f x =
      if Util.Parallel.in_worker () && Util.Parallel.task_attempt () = 0 then
        Unix._exit 97;
      x * x
    in
    let vs = Util.Parallel.map_values ~jobs:3 ~timeout_s:30. ~f tasks in
    Alcotest.(check (list int)) "values survive the deaths"
      (List.map (fun x -> x * x) tasks)
      vs;
    let st = Util.Parallel.last_pool_stats () in
    Alcotest.(check bool) "deaths seen" true
      (st.Util.Parallel.worker_deaths >= 1);
    Alcotest.(check bool) "respawns" true (st.Util.Parallel.respawns >= 1);
    Alcotest.(check bool) "tasks were retried" true
      (st.Util.Parallel.task_retries >= 1);
    Alcotest.(check bool) "not degraded" false st.Util.Parallel.degraded
  end

let test_pool_stats_clean () =
  let _ =
    Util.Parallel.map_values ~jobs:2 ~f:(fun x -> x + 1) [ 1; 2; 3; 4 ]
  in
  let st = Util.Parallel.last_pool_stats () in
  Alcotest.(check int) "no deaths" 0 st.Util.Parallel.worker_deaths;
  Alcotest.(check int) "no timeouts" 0 st.Util.Parallel.timeouts;
  Alcotest.(check bool) "not degraded" false st.Util.Parallel.degraded

(* --- solver fallback chain ----------------------------------------------- *)

let retries (sw : P.sweep) =
  List.assoc P.Path_pdhg_retry
    (P.path_counts
       (List.concat_map (fun (_, cells) -> List.map snd cells) sw.P.per_class))

let test_diverge_fallback jobs () =
  let clean_sw = Lazy.force fo_golden in
  Alcotest.(check int) "clean run needs no retries" 0 (retries clean_sw);
  with_spec "seed=5,diverge=1" (fun () ->
      let sw = run_sweep ~jobs ~solver:fo_solver () in
      Alcotest.(check string) "identical to unfaulted run"
        (signature clean_sw) (signature sw);
      Alcotest.(check bool) "retry path exercised" true
        (retries sw >= 1))

(* --- checkpoint journal -------------------------------------------------- *)

exception Interrupted

let fresh_journal () =
  let path = Filename.temp_file "sweep" ".journal" in
  Sys.remove path;
  path

let interrupt_after n ?fractions ?spec ~journal () =
  match
    run_sweep ~jobs:1 ~journal ?fractions ?spec
      ~progress:(fun ~completed ~total:_ ->
        if completed >= n then raise Interrupted)
      ()
  with
  | _ -> Alcotest.fail "sweep should have been interrupted"
  | exception Interrupted -> ()

let check_journal_gone journal =
  Alcotest.(check bool) "journal deleted on completion" false
    (Sys.file_exists journal);
  Alcotest.(check bool) "journal tmp deleted" false
    (Sys.file_exists (journal ^ ".tmp"))

let test_journal_resume () =
  let clean = Lazy.force golden in
  let journal = fresh_journal () in
  interrupt_after 4 ~journal ();
  Alcotest.(check bool) "journal written" true (Sys.file_exists journal);
  let sw = run_sweep ~jobs:1 ~journal () in
  Alcotest.(check int) "cells restored" 4 sw.P.resumed;
  Alcotest.(check string) "identical to uninterrupted run" clean (signature sw);
  check_journal_gone journal

let test_journal_corrupt_tail () =
  let clean = Lazy.force golden in
  let journal = fresh_journal () in
  interrupt_after 4 ~journal ();
  (* A torn write: chop the last record mid-line. The loader must keep the
     intact prefix and recompute only the lost cell. *)
  let ic = open_in_bin journal in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin journal in
  output_string oc (String.sub contents 0 (String.length contents - 17));
  close_out oc;
  let sw = run_sweep ~jobs:1 ~journal () in
  Alcotest.(check int) "intact prefix restored" 3 sw.P.resumed;
  Alcotest.(check string) "identical to uninterrupted run" clean (signature sw);
  check_journal_gone journal

let test_journal_garbage_tail () =
  let clean = Lazy.force golden in
  let journal = fresh_journal () in
  interrupt_after 4 ~journal ();
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 journal in
  output_string oc "deadbeef thisisnothex\n";
  close_out oc;
  let sw = run_sweep ~jobs:1 ~journal () in
  Alcotest.(check int) "records before the garbage survive" 4 sw.P.resumed;
  Alcotest.(check string) "identical to uninterrupted run" clean (signature sw);
  check_journal_gone journal

let test_journal_stale_fingerprint () =
  let clean = Lazy.force golden in
  let journal = fresh_journal () in
  (* Journal a *different* sweep (other fractions), then resume the
     standard one against it: the fingerprint mismatch must discard the
     stale cells rather than serving them. *)
  interrupt_after 2 ~fractions:[ 0.6; 0.8 ] ~journal ();
  let sw = run_sweep ~jobs:1 ~journal () in
  Alcotest.(check int) "stale journal ignored" 0 sw.P.resumed;
  Alcotest.(check string) "identical to uninterrupted run" clean (signature sw);
  check_journal_gone journal

let test_journal_other_instance () =
  (* Same system, classes and fractions, but storage costs twice as much:
     every cell changes, so cells journaled for the standard spec must
     not be resumed into the alpha = 2 sweep. *)
  let alpha2 () =
    qos_spec ~costs:{ Mcperf.Spec.default_costs with Mcperf.Spec.alpha = 2. } ()
  in
  let clean = signature (run_sweep ~jobs:1 ~spec:(alpha2 ()) ()) in
  let journal = fresh_journal () in
  interrupt_after 4 ~journal ();
  let sw = run_sweep ~jobs:1 ~spec:(alpha2 ()) ~journal () in
  Alcotest.(check int) "other instance's journal ignored" 0 sw.P.resumed;
  Alcotest.(check string) "identical to a clean alpha = 2 run" clean
    (signature sw);
  check_journal_gone journal

let journal_header fp = "# replica-select sweep journal v4 fingerprint=" ^ fp

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A journal written before [solve_path] lost its simplex-rescue
   constructor carries the v3 header; its payloads could decode into a
   constructor that no longer exists, so it must never be resumed. *)
let test_journal_old_version () =
  let clean = Lazy.force golden in
  let journal = fresh_journal () in
  interrupt_after 4 ~journal ();
  let contents = read_file journal in
  let v4 = "# replica-select sweep journal v4 " in
  let n = String.length v4 in
  Alcotest.(check string) "written as v4" v4 (String.sub contents 0 n);
  write_file journal
    ("# replica-select sweep journal v3 "
    ^ String.sub contents n (String.length contents - n));
  let sw = run_sweep ~jobs:1 ~journal () in
  Alcotest.(check int) "v3 journal ignored" 0 sw.P.resumed;
  Alcotest.(check string) "identical to uninterrupted run" clean (signature sw);
  check_journal_gone journal

(* The loader returns the valid prefix and names the first defect. *)
let test_journal_loader_defects () =
  let fp = String.make 32 'a' in
  let path = Filename.temp_file "loader" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  Sys.remove path;
  let load p = P.load_journal ~fingerprint:fp p in
  (match load path with
  | [], None -> ()
  | _, Some e -> Alcotest.fail ("missing: " ^ Util.Parse_error.to_string e)
  | _ :: _, None -> Alcotest.fail "missing journal loaded cells");
  write_file path "";
  (match load path with
  | [], Some { Util.Parse_error.file; line = 1; msg = "missing journal header" }
    ->
    Alcotest.(check string) "empty: file" path file
  | _, Some e -> Alcotest.fail ("empty: " ^ Util.Parse_error.to_string e)
  | _, None -> Alcotest.fail "empty journal has no defect");
  write_file path (journal_header (String.make 32 'b') ^ "\n");
  (match load path with
  | [], Some { Util.Parse_error.line = 1; msg; _ } ->
    Alcotest.(check bool) "mismatch named" true
      (String.length msg >= 6 && String.sub msg 0 6 = "journa")
  | _, Some e -> Alcotest.fail ("mismatch: " ^ Util.Parse_error.to_string e)
  | _, None -> Alcotest.fail "mismatched journal has no defect");
  write_file path (journal_header fp ^ "\nnot-a-record\n");
  (match load path with
  | [], Some { Util.Parse_error.line = 2; msg; _ } ->
    Alcotest.(check bool) "corrupt named" true
      (String.length msg >= 22
      && String.sub msg 0 22 = "corrupt journal record")
  | _, Some e -> Alcotest.fail ("corrupt: " ^ Util.Parse_error.to_string e)
  | _, None -> Alcotest.fail "corrupt record has no defect");
  write_file path (journal_header fp ^ "\ndeadbeef zz\n");
  (match load path with
  | [], Some { Util.Parse_error.line = 2; _ } -> ()
  | _, Some e -> Alcotest.fail ("bad hex: " ^ Util.Parse_error.to_string e)
  | _, None -> Alcotest.fail "non-hex payload has no defect");
  write_file path (journal_header fp ^ "\n");
  (match load path with
  | [], None -> ()
  | _ :: _, _ -> Alcotest.fail "phantom entries"
  | [], Some e -> Alcotest.fail ("header-only: " ^ Util.Parse_error.to_string e));
  let dir = Filename.dirname path in
  match load dir with
  | [], Some { Util.Parse_error.file; line = 0; _ } ->
    Alcotest.(check string) "directory: file" dir file
  | _, Some e -> Alcotest.fail ("directory: " ^ Util.Parse_error.to_string e)
  | _, None -> Alcotest.fail "a directory loaded as a journal"

(* --- retry/backoff bookkeeping ------------------------------------------- *)

let prop_backoff_bounded_monotone =
  QCheck2.Test.make ~count:300
    ~name:"backoff delay is nonnegative, capped, and monotone in attempt"
    QCheck2.Gen.(
      tup3 (int_range 0 80) (float_range 1e-6 0.1) (float_range 1e-6 0.5))
    (fun (attempt, base_s, cap_s) ->
      let d = Util.Parallel.backoff_delay ~base_s ~cap_s attempt in
      let d' = Util.Parallel.backoff_delay ~base_s ~cap_s (attempt + 1) in
      d >= 0. && d <= cap_s && d' >= d)

let test_backoff_defaults () =
  Alcotest.(check (float 1e-12)) "first delay is the base" 0.001
    (Util.Parallel.backoff_delay 0);
  Alcotest.(check (float 1e-12)) "doubles" 0.002
    (Util.Parallel.backoff_delay 1);
  Alcotest.(check (float 1e-12)) "caps" 0.25
    (Util.Parallel.backoff_delay 30);
  Alcotest.(check (float 1e-12)) "custom base and cap" 0.5
    (Util.Parallel.backoff_delay ~base_s:0.125 ~cap_s:0.5 4)

let test_backoff_schedule () =
  (* Deterministic: same attempt, same delay, every call. *)
  for a = 0 to 12 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "deterministic at %d" a)
      (Util.Parallel.backoff_delay a)
      (Util.Parallel.backoff_delay a)
  done;
  (* Non-negative, monotone non-decreasing, never above the cap. *)
  let prev = ref 0. in
  for a = 0 to 12 do
    let d = Util.Parallel.backoff_delay a in
    Alcotest.(check bool) "non-negative" true (d >= 0.);
    Alcotest.(check bool) "monotone" true (d >= !prev);
    Alcotest.(check bool) "capped" true (d <= 0.25);
    prev := d
  done;
  Alcotest.(check (float 1e-12)) "base at attempt 0" 0.001
    (Util.Parallel.backoff_delay 0);
  Alcotest.(check (float 1e-12)) "doubles" 0.004
    (Util.Parallel.backoff_delay 2);
  Alcotest.(check (float 1e-12)) "saturates at cap" 0.25
    (Util.Parallel.backoff_delay 20);
  Alcotest.(check (float 1e-12)) "custom base and cap" 0.5
    (Util.Parallel.backoff_delay ~base_s:0.125 ~cap_s:0.5 4)

let () =
  let per_jobs name f =
    List.map
      (fun j ->
        Alcotest.test_case (Printf.sprintf "%s (jobs=%d)" name j) `Quick (f j))
      jobs_under_test
  in
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse round trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "deterministic decisions" `Quick
            test_decide_deterministic;
        ] );
      ( "supervision",
        per_jobs "crash recovery" test_crash_recovery
        @ per_jobs "crash every 2nd cell" test_crash_every
        @ per_jobs "stall hits timeout" test_stall_timeout
        @ [
            Alcotest.test_case "pool bookkeeping under crashes" `Quick
              test_pool_crash_bookkeeping;
            Alcotest.test_case "clean run leaves zero stats" `Quick
              test_pool_stats_clean;
          ] );
      ( "pool",
        [
          Alcotest.test_case "mixed deaths recover" `Quick
            test_pool_mixed_deaths;
        ] );
      ("fallback", per_jobs "forced divergence recovers" test_diverge_fallback);
      ( "journal",
        [
          Alcotest.test_case "interrupt and resume" `Quick test_journal_resume;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_journal_corrupt_tail;
          Alcotest.test_case "garbage tail tolerated" `Quick
            test_journal_garbage_tail;
          Alcotest.test_case "stale fingerprint ignored" `Quick
            test_journal_stale_fingerprint;
          Alcotest.test_case "other instance ignored" `Quick
            test_journal_other_instance;
          Alcotest.test_case "old journal version ignored" `Quick
            test_journal_old_version;
          Alcotest.test_case "loader defects" `Quick
            test_journal_loader_defects;
        ] );
      ( "backoff",
        [
          QCheck_alcotest.to_alcotest prop_backoff_bounded_monotone;
          Alcotest.test_case "default schedule" `Quick test_backoff_defaults;
          Alcotest.test_case "schedule" `Quick test_backoff_schedule;
        ] );
    ]
