type 'a result = { value : 'a; wall_s : float }

exception Task_failed of { index : int; message : string }
exception Task_timeout of { index : int; timeout_s : float }

type task_error = { index : int; message : string }

type pool_stats = {
  worker_deaths : int;
  respawns : int;
  task_retries : int;
  inline_recoveries : int;
  timeouts : int;
  fork_failures : int;
  degraded : bool;
}

let zero_stats =
  {
    worker_deaths = 0;
    respawns = 0;
    task_retries = 0;
    inline_recoveries = 0;
    timeouts = 0;
    fork_failures = 0;
    degraded = false;
  }

let stats_ref = ref zero_stats

let last_pool_stats () = !stats_ref

let fork_available = Sys.unix

(* Ambient worker context, readable from inside a task. [worker_ctx] is
   [Some attempt] while a worker process executes a task body; the parent
   (sequential path, inline recovery) always reads [None]/0. Fault
   injectors use it to crash only inside a disposable worker and only on
   a task's first attempt, so recovery terminates. *)
let worker_ctx : int option ref = ref None

let in_worker () = !worker_ctx <> None

let task_attempt () = match !worker_ctx with Some a -> a | None -> 0

(* Ambient per-task wall-clock deadline (an absolute [Unix.gettimeofday]
   value; [infinity] = unbudgeted), installed around each task body on
   every execution path — worker serve loop, sequential fallback, inline
   recovery. Budget-aware task bodies (anytime LP solves, bisection
   searches) poll it to degrade to a valid-but-looser answer instead of
   overrunning a sweep deadline. Budgets travel with the dispatch message
   because workers fork before the budgets are known. *)
let task_deadline_ref = ref infinity

let task_deadline () = !task_deadline_ref

let task_expired () =
  let d = !task_deadline_ref in
  d < infinity && Unix.gettimeofday () >= d

let with_task_deadline budget body =
  let deadline =
    if Float.is_finite budget then Unix.gettimeofday () +. Float.max 0. budget
    else infinity
  in
  task_deadline_ref := deadline;
  Fun.protect ~finally:(fun () -> task_deadline_ref := infinity) body

(* --- observability ------------------------------------------------------- *)

(* Task bodies run under a per-task trace scope ("task:<phase>.<index>")
   with fresh logical counters, on every execution path — worker serve
   loop, sequential fallback, inline recovery. A task's events are
   therefore identical whichever process ran it, which is what lets a
   --jobs 4 trace merge byte-identically with a --jobs 1 trace.

   The phase number distinguishes [run] invocations: a program that maps
   twice (say a bound sweep, then a deployment search) reuses task
   indices, and in a forked pool the second phase's workers restart each
   scope's counters from zero — without the namespace the two phases
   would collide on (scope, seq) keys, which sequential execution (where
   counters resume across phases) would merge differently. The counter
   bumps in the parent before workers fork, so every process agrees on
   it, and it resets on [Obs.Config.install] so identical traced runs
   stay identical. *)
let phase = ref 0
let () = Obs.Config.on_install (fun () -> phase := 0)

let with_task_obs index ~attempt body =
  if not (Obs.Config.tracing ()) then body ()
  else begin
    let prev = Obs.Trace.scope () in
    Obs.Trace.set_scope (Printf.sprintf "task:%d.%d" !phase index);
    let sp =
      Obs.Trace.span_begin ~attrs:[ ("attempt", Obs.Trace.Int attempt) ] "task"
    in
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.span_end sp;
        Obs.Trace.set_scope prev)
      body
  end

(* Supervision events (dispatch, deaths, respawns, backoff) depend on
   worker scheduling, so they are only traced in wall-clock mode — in
   logical mode they would break the any-jobs byte-identity contract. *)
let pool_event name attrs =
  if Obs.Config.tracing () && Obs.Config.wall_clock () then begin
    let prev = Obs.Trace.scope () in
    Obs.Trace.set_scope "pool";
    Obs.Trace.event ~attrs name;
    Obs.Trace.set_scope prev
  end

let m_dispatched = lazy (Obs.Metrics.counter "pool.tasks_dispatched")
let m_deaths = lazy (Obs.Metrics.counter "pool.worker_deaths")
let m_respawns = lazy (Obs.Metrics.counter "pool.respawns")
let m_retries = lazy (Obs.Metrics.counter "pool.task_retries")
let m_timeouts = lazy (Obs.Metrics.counter "pool.timeouts")
let m_inline = lazy (Obs.Metrics.counter "pool.inline_recoveries")
let m_backoff = lazy (Obs.Metrics.counter "pool.backoff_sleeps")
let h_task_wall = lazy (Obs.Metrics.histogram "pool.task_wall_s")

let observe_task_wall wall =
  (* Time-based, hence only meaningful (and only deterministic to skip)
     in wall-clock mode; logical-mode metric snapshots stay identical at
     every --jobs. *)
  if Obs.Config.wall_clock () then
    Obs.Metrics.observe (Lazy.force h_task_wall) wall

(* --- supervision policy -------------------------------------------------- *)

let max_task_attempts = 3

let backoff_delay ?(base_s = 0.001) ?(cap_s = 0.25) attempt =
  if attempt <= 0 then Float.min base_s cap_s
  else Float.min cap_s (base_s *. (2. ** float_of_int attempt))

let available_cores () =
  let from_cpuinfo () =
    let ic = open_in "/proc/cpuinfo" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let count = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if
               String.length line >= 9
               && String.sub line 0 9 = "processor"
             then incr count
           done
         with End_of_file -> ());
        !count)
  in
  let from_getconf () =
    let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
    Fun.protect
      ~finally:(fun () -> ignore (Unix.close_process_in ic))
      (fun () -> int_of_string (String.trim (input_line ic)))
  in
  let attempt f = try f () with _ -> 0 in
  let n = attempt from_cpuinfo in
  let n = if n > 0 then n else attempt from_getconf in
  max 1 n

let default_jobs () = available_cores ()

(* --- sequential fallback ------------------------------------------------ *)

let sequential ?budget_of ?on_result ~f tasks =
  List.mapi
    (fun index task ->
      let budget = match budget_of with Some g -> g index | None -> infinity in
      let t0 = Unix.gettimeofday () in
      match
        with_task_deadline budget (fun () ->
            with_task_obs index ~attempt:0 (fun () -> f task))
      with
      | value ->
        (* wall_s clamped: a backwards NTP step between the two clock
           reads must not surface as a negative duration. *)
        let r = { value; wall_s = Float.max 0. (Unix.gettimeofday () -. t0) } in
        observe_task_wall r.wall_s;
        (match on_result with Some g -> g index r | None -> ());
        Ok r
      | exception e ->
        Error { index; message = Printexc.to_string e })
    tasks

(* --- worker pool --------------------------------------------------------- *)

type worker = {
  pid : int;
  req_fd : Unix.file_descr;  (** parent's write end, also behind [req_oc] *)
  req_oc : out_channel;
  resp_fd : Unix.file_descr;
  resp_ic : in_channel;
  mutable task : (int * int) option;  (** (index, attempt) in flight *)
  mutable deadline : float;
  mutable alive : bool;
}

(* One response per dispatched request, so the parent's buffered [resp_ic]
   is empty whenever it selects on [resp_fd]; readability of the raw fd is
   therefore an accurate "a full response is coming" signal. The fourth
   element is the worker's drained observability buffer (trace events +
   metric deltas, Marshal-framed by [Obs.Sink.payload]); it is [""] — and
   costs one length word on the pipe — whenever observability is off. *)
type 'b response = int * ('b, string) Stdlib.result * float * string

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn ~inherited ~tasks ~f =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w =
    try Unix.pipe ()
    with e ->
      close_noerr req_r;
      close_noerr req_w;
      raise e
  in
  match Unix.fork () with
  | exception e ->
    List.iter close_noerr [ req_r; req_w; resp_r; resp_w ];
    raise e
  | 0 ->
    (* Child: drop every parent-side fd of the other live workers so that
       a worker crash shows up as EOF in the parent (no stray write-end
       copies keep the pipe open), then serve (index, attempt) requests
       until EOF. *)
    List.iter close_noerr inherited;
    Unix.close req_w;
    Unix.close resp_r;
    (* The fork copied the parent's accumulated trace buffer and metric
       registry into this child. Those events belong to the parent — it
       still has them, and shipping them back would duplicate them in
       the merged trace — so discard the inherited state; payloads must
       carry only what this worker records itself. *)
    ignore (Obs.Sink.payload ());
    let ic = Unix.in_channel_of_descr req_r in
    let oc = Unix.out_channel_of_descr resp_w in
    let rec serve () =
      match (Marshal.from_channel ic : int * int * float) with
      | exception (End_of_file | Failure _) -> ()
      | index, attempt, budget_s ->
        let t0 = Unix.gettimeofday () in
        worker_ctx := Some attempt;
        let res =
          try
            Ok
              (with_task_deadline budget_s (fun () ->
                   with_task_obs index ~attempt (fun () -> f tasks.(index))))
          with e -> Error (Printexc.to_string e)
        in
        worker_ctx := None;
        let wall = Float.max 0. (Unix.gettimeofday () -. t0) in
        let payload = Obs.Sink.payload () in
        (Marshal.to_channel oc (index, res, wall, payload : _ response) [];
         flush oc);
        serve ()
    in
    (try serve () with _ -> ());
    (* [Unix._exit]: skip at_exit/flushing so the child cannot replay the
       parent's buffered stdout. *)
    (try flush oc with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    {
      pid;
      req_fd = req_w;
      req_oc = Unix.out_channel_of_descr req_w;
      resp_fd = resp_r;
      resp_ic = Unix.in_channel_of_descr resp_r;
      task = None;
      deadline = infinity;
      alive = true;
    }

(* Retire a worker without leaving a zombie: close its pipes (EOF makes a
   live child exit on its own), poll with WNOHANG for up to [grace_s],
   escalate to SIGKILL if it has not exited by then, and swallow ECHILD
   (someone else — or a double reap — already collected it). Returns the
   wait status when one was collected. *)
let reap ?(grace_s = 0.05) w ~kill =
  if not w.alive then None
  else begin
    w.alive <- false;
    (try close_out_noerr w.req_oc with _ -> ());
    (try close_in_noerr w.resp_ic with _ -> ());
    if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let deadline = ref (Unix.gettimeofday () +. grace_s) in
    let rec blocking_wait () =
      match Unix.waitpid [] w.pid with
      | _, status -> Some status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> blocking_wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
      | exception Unix.Unix_error _ -> None
    in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] w.pid with
      | 0, _ ->
        let now = Unix.gettimeofday () in
        (* Re-derive after a backwards clock step so the grace period can
           never stretch beyond [grace_s] of real polling. *)
        if !deadline -. now > grace_s then deadline := now +. grace_s;
        if now >= !deadline then begin
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (* SIGKILL cannot be caught; a blocking wait now terminates. *)
          blocking_wait ()
        end
        else begin
          Unix.sleepf 0.002;
          poll ()
        end
      | _, status -> Some status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
      | exception Unix.Unix_error _ -> None
    in
    poll ()
  end

let rec select_eintr fds timeout =
  try Unix.select fds [] [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr fds timeout

let run_pool ~jobs ~timeout_s ?budget_of ?on_result ~f tasks =
  let budget_for index =
    match budget_of with Some g -> g index | None -> infinity
  in
  let n = Array.length tasks in
  let results = Array.make n None in
  let failures : task_error option array = Array.make n None in
  let completed = ref 0 in
  let next = ref 0 in
  let retries : (int * int) Queue.t = Queue.create () in
  let worker_deaths = ref 0
  and respawns = ref 0
  and task_retries = ref 0
  and inline_recoveries = ref 0
  and timeouts = ref 0
  and fork_failures = ref 0
  and degraded = ref false in
  let complete_ok index r =
    if results.(index) = None && failures.(index) = None then begin
      results.(index) <- Some r;
      incr completed;
      observe_task_wall r.wall_s;
      match on_result with Some g -> g index r | None -> ()
    end
  in
  let complete_err index message =
    if results.(index) = None && failures.(index) = None then begin
      failures.(index) <- Some { index; message };
      incr completed
    end
  in
  let run_inline (index, attempt) =
    (* Last-resort path: compute in the parent (also the drain path once
       every worker is gone). Exceptions become structured failures. *)
    let t0 = Unix.gettimeofday () in
    match
      with_task_deadline (budget_for index) (fun () ->
          with_task_obs index ~attempt (fun () -> f tasks.(index)))
    with
    | value ->
      complete_ok index
        { value; wall_s = Float.max 0. (Unix.gettimeofday () -. t0) }
    | exception e ->
      complete_err index (Printexc.to_string e)
  in
  (* One slot per worker process, capped at the task count. An empty slot
     (fork failed, or the respawn budget is spent) is never refilled. *)
  let workers : worker option array = Array.make (min jobs n) None in
  let respawn_budget = ref (max 4 (2 * Array.length workers)) in
  let live_parent_fds () =
    Array.fold_left
      (fun acc w ->
        match w with
        | Some w when w.alive -> w.req_fd :: w.resp_fd :: acc
        | Some _ | None -> acc)
      [] workers
  in
  (* Fork with bounded retries and exponential backoff; [None] after the
     budget means the pool runs narrower (and, once empty, sequentially). *)
  let try_fork () =
    let rec go attempt =
      match spawn ~inherited:(live_parent_fds ()) ~tasks ~f with
      | w -> Some w
      | exception (Unix.Unix_error _ | Sys_error _) ->
        incr fork_failures;
        if attempt >= 2 then None
        else begin
          Unix.sleepf (backoff_delay attempt);
          go (attempt + 1)
        end
    in
    go 0
  in
  let respawn_slot slot =
    workers.(slot) <- None;
    if !respawn_budget > 0 then begin
      decr respawn_budget;
      match try_fork () with
      | Some w ->
        incr respawns;
        Obs.Metrics.incr (Lazy.force m_respawns);
        pool_event "respawn"
          [ ("slot", Obs.Trace.Int slot); ("pid", Obs.Trace.Int w.pid) ];
        workers.(slot) <- Some w
      | None -> degraded := true
    end
  in
  (* Requeue a task whose attempt [attempt - 1] was lost, after a backoff
     sleep. *)
  let requeue (index, attempt) =
    incr task_retries;
    Obs.Metrics.incr (Lazy.force m_retries);
    Obs.Metrics.incr (Lazy.force m_backoff);
    pool_event "backoff"
      [
        ("index", Obs.Trace.Int index);
        ("attempt", Obs.Trace.Int attempt);
        ("wall_sleep_s", Obs.Trace.Float (backoff_delay (attempt - 1)));
      ];
    Unix.sleepf (backoff_delay (attempt - 1));
    Queue.push (index, attempt) retries
  in
  (* A worker died (EOF on its pipe, or EPIPE at dispatch). Reap it,
     requeue its in-flight task with backoff — bounded attempts, then the
     parent computes it inline — and respawn the slot. *)
  let on_death slot w =
    incr worker_deaths;
    Obs.Metrics.incr (Lazy.force m_deaths);
    pool_event "worker_death" [ ("pid", Obs.Trace.Int w.pid) ];
    ignore (reap w ~kill:false);
    (match w.task with
    | Some (index, attempt) ->
      w.task <- None;
      let attempt = attempt + 1 in
      if attempt >= max_task_attempts then begin
        incr inline_recoveries;
        Obs.Metrics.incr (Lazy.force m_inline);
        pool_event "inline_recovery" [ ("index", Obs.Trace.Int index) ];
        run_inline (index, attempt)
      end
      else requeue (index, attempt)
    | None -> ());
    respawn_slot slot
  in
  let dispatch slot w =
    if w.task = None then begin
      let job =
        if not (Queue.is_empty retries) then Some (Queue.pop retries)
        else if !next < n then begin
          let index = !next in
          incr next;
          Some (index, 0)
        end
        else None
      in
      match job with
      | None -> ()
      | Some (index, attempt) -> (
        match
          Marshal.to_channel w.req_oc
            ((index, attempt, budget_for index) : int * int * float)
            [];
          flush w.req_oc
        with
        | () ->
          Obs.Metrics.incr (Lazy.force m_dispatched);
          pool_event "dispatch"
            [
              ("index", Obs.Trace.Int index);
              ("attempt", Obs.Trace.Int attempt);
              ("slot", Obs.Trace.Int slot);
            ];
          w.task <- Some (index, attempt);
          w.deadline <-
            (match timeout_s with
            | Some t -> Unix.gettimeofday () +. t
            | None -> infinity)
        | exception (Sys_error _ | Unix.Unix_error _) ->
          (* The worker died before we could feed it; the task never ran,
             so requeue it at the same attempt and supervise the death. *)
          Queue.push (index, attempt) retries;
          on_death slot w)
    end
  in
  let on_response slot w =
    match (Marshal.from_channel w.resp_ic : _ response) with
    | exception (End_of_file | Failure _ | Sys_error _) -> on_death slot w
    | index, res, wall, payload -> (
      w.task <- None;
      w.deadline <- infinity;
      (* Absorb the worker's trace/metrics buffer only for the attempt
         that is actually accepted, so a retried task can never be
         double-counted in the merged trace. *)
      if results.(index) = None && failures.(index) = None then
        Obs.Sink.absorb_payload payload;
      match res with
      | Ok value -> complete_ok index { value; wall_s = wall }
      | Error message ->
        (* A raising task is a structured failure, not a pool teardown:
           the worker survives and keeps serving, the other cells finish,
           and [map] reports the failure at the end. *)
        complete_err index message)
  in
  (* A stalled task: kill its worker and retry on a fresh one (transient
     stalls recover); once the attempt budget is spent, the task is
     genuinely stuck — raise rather than hang the parent on an inline
     run. *)
  let on_timeout slot w =
    incr timeouts;
    Obs.Metrics.incr (Lazy.force m_timeouts);
    pool_event "timeout"
      [
        ("pid", Obs.Trace.Int w.pid);
        ( "index",
          Obs.Trace.Int (match w.task with Some (i, _) -> i | None -> -1) );
      ];
    let pending = w.task in
    w.task <- None;
    ignore (reap w ~kill:true);
    (match pending with
    | Some (index, attempt) ->
      let attempt = attempt + 1 in
      if attempt >= max_task_attempts then
        raise
          (Task_timeout
             { index; timeout_s = Option.value timeout_s ~default:0. })
      else requeue (index, attempt)
    | None -> ());
    respawn_slot slot
  in
  let cleanup ~kill =
    Array.iter (function Some w -> ignore (reap w ~kill) | None -> ()) workers
  in
  let record_stats () =
    stats_ref :=
      {
        worker_deaths = !worker_deaths;
        respawns = !respawns;
        task_retries = !task_retries;
        inline_recoveries = !inline_recoveries;
        timeouts = !timeouts;
        fork_failures = !fork_failures;
        degraded = !degraded;
      }
  in
  let finally_cleanup body =
    match body () with
    | () ->
      cleanup ~kill:false;
      record_stats ()
    | exception e ->
      cleanup ~kill:true;
      record_stats ();
      raise e
  in
  (* Every worker holding a task, with its slot. *)
  let in_flight () =
    List.filter_map
      (fun slot ->
        match workers.(slot) with
        | Some w when w.task <> None -> Some (slot, w)
        | Some _ | None -> None)
      (List.init (Array.length workers) Fun.id)
  in
  (* A dead worker turns the next dispatch into EPIPE; take the error, not
     the signal. *)
  let prev_sigpipe =
    if Sys.os_type = "Unix" then
      Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev_sigpipe with
      | Some b -> Sys.set_signal Sys.sigpipe b
      | None -> ())
    (fun () ->
      finally_cleanup (fun () ->
          Array.iteri (fun i _ -> workers.(i) <- try_fork ()) workers;
          while !completed < n do
            Array.iteri
              (fun slot w ->
                match w with Some w -> dispatch slot w | None -> ())
              workers;
            match in_flight () with
            | [] ->
              (* Every worker is gone (or fork never succeeded): degrade
                 to sequential execution in the parent. *)
              if !completed < n then degraded := true;
              while not (Queue.is_empty retries) do
                run_inline (Queue.pop retries)
              done;
              while !completed < n && !next < n do
                let index = !next in
                incr next;
                run_inline (index, 0)
              done
            | busy ->
              let now = Unix.gettimeofday () in
              (* A backwards clock step (NTP) would leave absolute
                 deadlines far in the future and stretch the select
                 below by the size of the jump; re-derive so no
                 in-flight task ever has more than the configured
                 timeout left. *)
              (match timeout_s with
              | Some t ->
                List.iter
                  (fun (_, w) ->
                    if w.deadline > now +. t then w.deadline <- now +. t)
                  busy
              | None -> ());
              let horizon =
                List.fold_left
                  (fun acc (_, w) -> Float.min acc w.deadline)
                  infinity busy
              in
              let select_timeout =
                if horizon = infinity then -1. else Float.max 0. (horizon -. now)
              in
              let readable, _, _ =
                select_eintr
                  (List.map (fun (_, w) -> w.resp_fd) busy)
                  select_timeout
              in
              if readable = [] then begin
                let now = Unix.gettimeofday () in
                List.iter
                  (fun (slot, w) -> if w.deadline <= now then on_timeout slot w)
                  busy
              end
              else
                List.iter
                  (fun (slot, w) ->
                    if List.mem w.resp_fd readable then on_response slot w)
                  busy
          done));
  Array.init n (fun i ->
      match (results.(i), failures.(i)) with
      | Some r, _ -> Ok r
      | None, Some e -> Error e
      | None, None -> assert false)

(* --- public maps --------------------------------------------------------- *)

let run ?jobs ?timeout_s ?budget_of ?on_result ~f tasks =
  incr phase;
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let arr = Array.of_list tasks in
  if (not fork_available) || jobs <= 1 || Array.length arr <= 1 then begin
    stats_ref := zero_stats;
    sequential ?budget_of ?on_result ~f tasks
  end
  else Array.to_list (run_pool ~jobs ~timeout_s ?budget_of ?on_result ~f arr)

let map ?jobs ?timeout_s ?budget_of ?on_result ~f tasks =
  let outcomes = run ?jobs ?timeout_s ?budget_of ?on_result ~f tasks in
  (* Report the lowest-index failure, matching the sequential order a
     plain [List.map] would have surfaced it in. *)
  List.iter
    (fun o ->
      match o with
      | Ok _ -> ()
      | Error { index; message; _ } -> raise (Task_failed { index; message }))
    outcomes;
  List.map (function Ok r -> r | Error _ -> assert false) outcomes

let map_values ?jobs ?timeout_s ?budget_of ?on_result ~f tasks =
  List.map (fun r -> r.value) (map ?jobs ?timeout_s ?budget_of ?on_result ~f tasks)
