(* Tests for the distributed sweep backend: the supervisor's backoff
   schedule, the wire frame format (round trip and corruption
   detection), the task-function registry, the connect/blacklist policy,
   a live loopback pool under injected faults with mixed local/remote
   worker deaths, and the strict checkpoint-journal loader. *)

module P = Util.Parallel
module F = Util.Faults

(* --- backoff schedule ----------------------------------------------------- *)

let test_backoff_delay () =
  (* Deterministic: same attempt, same delay, every call. *)
  for a = 0 to 12 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "deterministic at %d" a)
      (P.backoff_delay a) (P.backoff_delay a)
  done;
  (* Non-negative, monotone non-decreasing, never above the cap. *)
  let prev = ref 0. in
  for a = 0 to 12 do
    let d = P.backoff_delay a in
    Alcotest.(check bool) "non-negative" true (d >= 0.);
    Alcotest.(check bool) "monotone" true (d >= !prev);
    Alcotest.(check bool) "capped" true (d <= 0.25);
    prev := d
  done;
  Alcotest.(check (float 1e-12)) "base at attempt 0" 0.001 (P.backoff_delay 0);
  Alcotest.(check (float 1e-12)) "doubles" 0.004 (P.backoff_delay 2);
  Alcotest.(check (float 1e-12)) "saturates at cap" 0.25 (P.backoff_delay 20);
  Alcotest.(check (float 1e-12)) "custom base and cap" 0.5
    (P.backoff_delay ~base_s:0.125 ~cap_s:0.5 4)

(* --- wire frames ----------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_socketpair @@ fun a b ->
  Dist.Wire.send_c2w a
    (Dist.Wire.Task { t_index = 7; t_attempt = 1; t_budget_s = 2.5 });
  (match Dist.Wire.recv_c2w b with
  | Dist.Wire.Task { t_index; t_attempt; t_budget_s } ->
    Alcotest.(check int) "index" 7 t_index;
    Alcotest.(check int) "attempt" 1 t_attempt;
    Alcotest.(check (float 0.)) "budget" 2.5 t_budget_s
  | _ -> Alcotest.fail "expected Task");
  Dist.Wire.send_w2c b
    (Dist.Wire.Result
       { r_index = 3; r_res = Ok "blob"; r_wall_s = 0.25; r_payload = "p" });
  (match Dist.Wire.recv_w2c a with
  | Dist.Wire.Result { r_index; r_res; r_wall_s; r_payload } ->
    Alcotest.(check int) "result index" 3 r_index;
    Alcotest.(check bool) "result blob" true (r_res = Ok "blob");
    Alcotest.(check (float 0.)) "wall" 0.25 r_wall_s;
    Alcotest.(check string) "payload" "p" r_payload
  | _ -> Alcotest.fail "expected Result");
  (* Raw frames beneath the typed messages. *)
  let big = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  Dist.Wire.send_string a big;
  Alcotest.(check string) "raw round trip" big (Dist.Wire.recv_string b)

let test_wire_garble_detected () =
  with_socketpair @@ fun a b ->
  Dist.Wire.send_c2w_garbled a
    (Dist.Wire.Task { t_index = 1; t_attempt = 0; t_budget_s = infinity });
  match Dist.Wire.recv_c2w b with
  | exception Failure _ -> ()
  | exception e ->
    Alcotest.fail ("garbled frame: unexpected " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "garbled frame was accepted"

let test_task_key () =
  (* Client and server compute the fault key independently: it must be a
     pure injective-enough function of (phase, index). *)
  Alcotest.(check string) "pure"
    (Dist.Wire.task_key ~phase:3 ~index:5)
    (Dist.Wire.task_key ~phase:3 ~index:5);
  Alcotest.(check bool) "phase matters" true
    (Dist.Wire.task_key ~phase:3 ~index:5
    <> Dist.Wire.task_key ~phase:4 ~index:5);
  Alcotest.(check bool) "index matters" true
    (Dist.Wire.task_key ~phase:3 ~index:5
    <> Dist.Wire.task_key ~phase:3 ~index:6)

(* --- registry -------------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check bool) "absent name" true
    (Dist.Registry.find "test.absent" = None);
  Dist.Registry.register "test.reg" (fun _ i -> string_of_int i);
  (match Dist.Registry.find "test.reg" with
  | Some f -> Alcotest.(check string) "applies" "4" (f "" 4)
  | None -> Alcotest.fail "registered name not found");
  Alcotest.(check bool) "listed" true
    (List.mem "test.reg" (Dist.Registry.names ()))

(* --- worker address parsing ------------------------------------------------ *)

let test_parse_workers () =
  (match Dist.Client.parse_workers " 127.0.0.1:9181, h2:42 " with
  | Ok ws ->
    Alcotest.(check (list (pair string int)))
      "addresses" [ ("127.0.0.1", 9181); ("h2", 42) ] ws
  | Error e -> Alcotest.fail e);
  (match Dist.Client.parse_workers "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty list");
  List.iter
    (fun bad ->
      match Dist.Client.parse_workers bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad))
    [ "nohost"; "h:0"; "h:notaport"; ":9181"; "h:70000" ]

(* --- connect/blacklist policy ---------------------------------------------- *)

let free_port () =
  let lfd = Dist.Server.bind_listener ~port:0 () in
  let p = Dist.Server.bound_port lfd in
  Unix.close lfd;
  p

let test_factory_blacklist () =
  (* Nothing listens on the port: round 1 is Remote_unavailable, round 2
     trips the blacklist, and the address stays retired for good. *)
  F.install F.none;
  let port = free_port () in
  let fac = Dist.Client.factory ~host:"127.0.0.1" ~port ~fn:"x" ~ctx:"" in
  (match fac () with
  | P.Remote_unavailable -> ()
  | P.Remote_ok _ -> Alcotest.fail "connected to a dead port"
  | P.Remote_blacklisted -> Alcotest.fail "blacklisted after one round");
  (match fac () with
  | P.Remote_blacklisted -> ()
  | _ -> Alcotest.fail "second failed round must blacklist");
  match fac () with
  | P.Remote_blacklisted -> ()
  | _ -> Alcotest.fail "blacklist must be permanent"

(* --- loopback pool --------------------------------------------------------- *)

let square_fn = "test.square"

let () =
  Dist.Registry.register square_fn (fun ctx index ->
      let tasks = (Marshal.from_string ctx 0 : int array) in
      Marshal.to_string (tasks.(index) * tasks.(index)) [])

(* Bind in the parent (learning the ephemeral port), serve in a child. *)
let spawn_worker () =
  let lfd = Dist.Server.bind_listener ~port:0 () in
  let port = Dist.Server.bound_port lfd in
  match Unix.fork () with
  | 0 -> ( try Dist.Server.accept_loop lfd with _ -> Unix._exit 1)
  | pid ->
    Unix.close lfd;
    (port, pid)

let stop_worker pid =
  (try Unix.kill pid Sys.sigkill with _ -> ());
  try ignore (Unix.waitpid [] pid) with _ -> ()

let squares tasks = List.map (fun x -> x * x) tasks

let test_remote_pool_matches_sequential () =
  F.install F.none;
  let tasks = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let ctx = Marshal.to_string (Array.of_list tasks) [] in
  let port, pid = spawn_worker () in
  Fun.protect ~finally:(fun () -> stop_worker pid) @@ fun () ->
  let remote =
    [ Dist.Client.factory ~host:"127.0.0.1" ~port ~fn:square_fn ~ctx ]
  in
  (* jobs = 1 plus remotes: no local fork workers, coordinator + TCP
     endpoint only. *)
  let vs = P.map_values ~jobs:1 ~timeout_s:30. ~remote ~f:(fun x -> x * x) tasks in
  Alcotest.(check (list int)) "values" (squares tasks) vs;
  let st = P.last_pool_stats () in
  Alcotest.(check int) "remote workers" 1 st.P.remote_workers;
  Alcotest.(check int) "no remote deaths" 0 st.P.remote_deaths;
  Alcotest.(check int) "no reconnects" 0 st.P.reconnects;
  Alcotest.(check int) "no blacklisting" 0 st.P.blacklisted;
  Alcotest.(check bool) "not degraded" false st.P.degraded

let test_mixed_deaths_and_stats () =
  (* Every first attempt dies, wherever it runs: local fork workers
     [_exit] mid-task, remote sessions take the injected disconnect and
     vanish instead of replying. Supervision must retry everything to
     completion with the sequential answer, while the counters show both
     kinds of death and the reconnects that healed them. *)
  let tasks = [ 0; 1; 2; 3; 4; 5 ] in
  let ctx = Marshal.to_string (Array.of_list tasks) [] in
  let port, pid = spawn_worker () in
  Fun.protect
    ~finally:(fun () ->
      stop_worker pid;
      F.install F.none)
  @@ fun () ->
  (match F.parse_result "seed=7,disconnect=1" with
  | Ok s -> F.install s
  | Error e -> Alcotest.fail (Util.Parse_error.to_string e));
  let remote =
    [ Dist.Client.factory ~host:"127.0.0.1" ~port ~fn:square_fn ~ctx ]
  in
  let f x =
    if P.in_worker () && P.task_attempt () = 0 then Unix._exit 97;
    x * x
  in
  let vs = P.map_values ~jobs:2 ~timeout_s:30. ~remote ~f tasks in
  Alcotest.(check (list int)) "values survive the chaos" (squares tasks) vs;
  let st = P.last_pool_stats () in
  Alcotest.(check int) "remote workers" 1 st.P.remote_workers;
  Alcotest.(check bool) "local deaths seen" true (st.P.worker_deaths >= 1);
  Alcotest.(check bool) "local respawns" true (st.P.respawns >= 1);
  Alcotest.(check bool) "remote deaths seen" true (st.P.remote_deaths >= 1);
  Alcotest.(check bool) "reconnects healed them" true (st.P.reconnects >= 1);
  Alcotest.(check bool) "tasks were retried" true (st.P.task_retries >= 1);
  Alcotest.(check int) "no blacklisting" 0 st.P.blacklisted;
  Alcotest.(check bool) "not degraded" false st.P.degraded

let test_dead_remote_falls_back_to_local () =
  (* The remote address never answers: its slot must blacklist and the
     local workers must still finish the map. *)
  F.install F.none;
  let tasks = [ 2; 7; 1; 8 ] in
  let port = free_port () in
  let ctx = Marshal.to_string (Array.of_list tasks) [] in
  let remote =
    [ Dist.Client.factory ~host:"127.0.0.1" ~port ~fn:square_fn ~ctx ]
  in
  let vs = P.map_values ~jobs:2 ~timeout_s:30. ~remote ~f:(fun x -> x * x) tasks in
  Alcotest.(check (list int)) "values" (squares tasks) vs;
  let st = P.last_pool_stats () in
  Alcotest.(check int) "remote workers" 1 st.P.remote_workers;
  Alcotest.(check int) "slot blacklisted" 1 st.P.blacklisted;
  Alcotest.(check bool) "not degraded" false st.P.degraded

(* --- strict checkpoint-journal loader -------------------------------------- *)

let journal_header fp = "# replica-select sweep journal v3 fingerprint=" ^ fp

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_journal_loader_errors () =
  let fp = String.make 32 'a' in
  let path = Filename.temp_file "dist" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  Sys.remove path;
  (match Bounds.Pipeline.load_journal_result ~fingerprint:fp path with
  | Error { Util.Parse_error.file; line = 0; msg = "no such journal" } ->
    Alcotest.(check string) "missing: file" path file
  | Error e -> Alcotest.fail ("missing: " ^ Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "missing journal loaded");
  write_file path "";
  (match Bounds.Pipeline.load_journal_result ~fingerprint:fp path with
  | Error { Util.Parse_error.line = 1; msg = "missing journal header"; _ } ->
    ()
  | Error e -> Alcotest.fail ("empty: " ^ Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "empty journal loaded");
  write_file path (journal_header (String.make 32 'b') ^ "\n");
  (match Bounds.Pipeline.load_journal_result ~fingerprint:fp path with
  | Error { Util.Parse_error.line = 1; msg; _ } ->
    Alcotest.(check bool) "mismatch named" true
      (String.length msg >= 6 && String.sub msg 0 6 = "journa")
  | Error e -> Alcotest.fail ("mismatch: " ^ Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "mismatched journal loaded");
  write_file path (journal_header fp ^ "\nnot-a-record\n");
  (match Bounds.Pipeline.load_journal_result ~fingerprint:fp path with
  | Error { Util.Parse_error.line = 2; msg; _ } ->
    Alcotest.(check bool) "corrupt named" true
      (String.length msg >= 22
      && String.sub msg 0 22 = "corrupt journal record")
  | Error e -> Alcotest.fail ("corrupt: " ^ Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "corrupt record loaded");
  write_file path (journal_header fp ^ "\ndeadbeef zz\n");
  (match Bounds.Pipeline.load_journal_result ~fingerprint:fp path with
  | Error { Util.Parse_error.line = 2; _ } -> ()
  | Error e -> Alcotest.fail ("bad hex: " ^ Util.Parse_error.to_string e)
  | Ok _ -> Alcotest.fail "non-hex payload loaded");
  write_file path (journal_header fp ^ "\n");
  match Bounds.Pipeline.load_journal_result ~fingerprint:fp path with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom entries"
  | Error e -> Alcotest.fail ("header-only: " ^ Util.Parse_error.to_string e)

let () =
  Alcotest.run "dist"
    [
      ( "backoff",
        [ Alcotest.test_case "schedule" `Quick test_backoff_delay ] );
      ( "wire",
        [
          Alcotest.test_case "round trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "garble detected" `Quick
            test_wire_garble_detected;
          Alcotest.test_case "task key" `Quick test_task_key;
        ] );
      ( "registry",
        [ Alcotest.test_case "register/find" `Quick test_registry ] );
      ( "client",
        [
          Alcotest.test_case "parse workers" `Quick test_parse_workers;
          Alcotest.test_case "blacklist transitions" `Quick
            test_factory_blacklist;
        ] );
      ( "pool",
        [
          Alcotest.test_case "remote matches sequential" `Quick
            test_remote_pool_matches_sequential;
          Alcotest.test_case "mixed deaths recover" `Quick
            test_mixed_deaths_and_stats;
          Alcotest.test_case "dead remote falls back" `Quick
            test_dead_remote_falls_back_to_local;
        ] );
      ( "journal",
        [
          Alcotest.test_case "strict loader errors" `Quick
            test_journal_loader_errors;
        ] );
    ]
