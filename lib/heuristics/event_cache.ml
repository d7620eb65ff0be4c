type mode =
  | Local
  | Cooperative
  | Hierarchical of { cluster_radius_ms : float }

(* Greedy latency-ball clustering: repeatedly seed a cluster at the
   unassigned node with the most unassigned neighbours within the radius
   and absorb them. Deterministic given the latency matrix. *)
let build_clusters latency ~nodes ~radius =
  let cluster = Array.make nodes (-1) in
  let next = ref 0 in
  let unassigned () =
    let best = ref (-1) and best_count = ref (-1) in
    for n = 0 to nodes - 1 do
      if cluster.(n) < 0 then begin
        let count = ref 0 in
        for m = 0 to nodes - 1 do
          if cluster.(m) < 0 && latency.(n).(m) <= radius then incr count
        done;
        if !count > !best_count then begin
          best := n;
          best_count := !count
        end
      end
    done;
    !best
  in
  let rec loop () =
    let seed = unassigned () in
    if seed >= 0 then begin
      for m = 0 to nodes - 1 do
        if cluster.(m) < 0 && latency.(seed).(m) <= radius then
          cluster.(m) <- !next
      done;
      incr next;
      loop ()
    end
  in
  loop ();
  cluster

type outcome = {
  hits_local : int;
  hits_remote : int;
  misses : int;
  insertions : int;
  qos : float array;
  avg_latency : float array;
  provisioned_cost : float;
  write_messages : float;
  placement : Mcperf.Costing.placement;
}

let meets_qos outcome ~fraction =
  Array.for_all (fun q -> q >= fraction -. 1e-9) outcome.qos

type plan = {
  trace : Workload.Trace.t;
  nodes : int;
  objects : int;
  intervals : int;
  origin : int;
  latency : float array array;
  costs : Mcperf.Spec.costs;
  tlat_ms : float;
  mode : mode;
  policy : Policy_cache.kind;
  placeable : bool array;
  sites : int;  (* caching sites: placeable, not the origin *)
  starts : int array;
      (* interval [i] is the event index range [starts.(i), starts.(i+1)) *)
  peer_order : int array array;
  clusters : int array;
  prefetch : int array array array option;
      (* [n][i]: the objects node [n] reads in interval [i], most read
         first *)
}

(* The interval of event [e] is [min (intervals - 1) (floor (time /
   interval_s))], which never decreases along the time-sorted trace, so
   each interval's first event is one binary search over it. *)
let interval_starts trace ~intervals =
  let events = Workload.Trace.length trace in
  let interval_s = Workload.Trace.duration_s trace /. float_of_int intervals in
  let interval_of e =
    min (intervals - 1)
      (int_of_float (Workload.Trace.time trace e /. interval_s))
  in
  let starts = Array.make (intervals + 1) events in
  starts.(0) <- 0;
  for i = 1 to intervals - 1 do
    let lo = ref starts.(i - 1) and hi = ref events in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if interval_of mid >= i then hi := mid else lo := mid + 1
    done;
    starts.(i) <- !lo
  done;
  starts

(* Objects each node reads per interval, most-read first. The counts go
   into one hash table keyed (node, interval, object) and each list is
   stably sorted, so objects read equally often keep the table's
   iteration order. That order depends only on which keys enter the
   table, in which order (a replace of a present key is in place), so
   each interval's reads are counted in a dense node × object row and
   its keys enter the table once, in order of first read: the same
   table as one replace per read. *)
let prefetch_plan trace ~nodes ~objects ~intervals ~starts =
  let plan = Array.init nodes (fun _ -> Array.make intervals []) in
  let counts = Hashtbl.create 1024 in
  let count = Array.make (nodes * objects) 0 in
  let first_read = Array.make (nodes * objects) 0 in
  for i = 0 to intervals - 1 do
    let distinct = ref 0 in
    for e = starts.(i) to starts.(i + 1) - 1 do
      if Workload.Trace.kind trace e = Workload.Trace.Read then begin
        let c =
          (Workload.Trace.node trace e * objects)
          + Workload.Trace.object_id trace e
        in
        if count.(c) = 0 then begin
          first_read.(!distinct) <- c;
          incr distinct
        end;
        count.(c) <- count.(c) + 1
      end
    done;
    for j = 0 to !distinct - 1 do
      let c = first_read.(j) in
      Hashtbl.replace counts (c / objects, i, c mod objects) count.(c);
      count.(c) <- 0
    done
  done;
  Hashtbl.iter
    (fun (n, i, k) c -> plan.(n).(i) <- (c, k) :: plan.(n).(i))
    counts;
  Array.map
    (Array.map (fun entries ->
         Array.of_list
           (List.map snd (List.sort (fun (c1, _) (c2, _) -> compare c2 c1) entries))))
    plan

let plan ~system ~trace ~intervals ~costs ~tlat_ms ~mode ?(prefetch = false)
    ?placeable ?(policy = Policy_cache.Lru) () =
  let nodes = Topology.System.node_count system in
  if intervals <= 0 || intervals > Mcperf.Spec.max_intervals then
    invalid_arg
      (Printf.sprintf "Event_cache.plan: intervals must be in 1..%d"
         Mcperf.Spec.max_intervals);
  if Workload.Trace.node_count trace > nodes then
    invalid_arg
      (Printf.sprintf "Event_cache.plan: the trace has %d nodes, the system %d"
         (Workload.Trace.node_count trace) nodes);
  let origin = system.Topology.System.origin in
  let placeable =
    match placeable with
    | None -> Array.make nodes true
    | Some p ->
      if Array.length p <> nodes then
        invalid_arg "Event_cache.plan: placeable length mismatch";
      p
  in
  let latency = system.Topology.System.latency in
  (* Peers sorted by latency, nearest first, self and origin excluded. *)
  let peer_order =
    Array.init nodes (fun n ->
        let others = ref [] in
        for m = 0 to nodes - 1 do
          if m <> n && m <> origin && placeable.(m) then others := m :: !others
        done;
        let arr = Array.of_list !others in
        Array.sort (fun a b -> compare latency.(n).(a) latency.(n).(b)) arr;
        arr)
  in
  let clusters =
    match mode with
    | Hierarchical { cluster_radius_ms } ->
      build_clusters latency ~nodes ~radius:cluster_radius_ms
    | Local | Cooperative -> Array.make nodes 0
  in
  let objects = Workload.Trace.object_count trace in
  let starts = interval_starts trace ~intervals in
  let sites = ref 0 in
  for n = 0 to nodes - 1 do
    if n <> origin && placeable.(n) then incr sites
  done;
  {
    trace;
    nodes;
    objects;
    intervals;
    origin;
    latency;
    costs;
    tlat_ms;
    mode;
    policy;
    placeable;
    sites = !sites;
    starts;
    peer_order;
    clusters;
    prefetch =
      (if prefetch then
         Some (prefetch_plan trace ~nodes ~objects ~intervals ~starts)
       else None);
  }

(* One replay's cache state, over flat arrays indexed by cell
   [n * objects + k] (node [n], object [k]):
   - [held]: membership, which is also the cooperative directory;
   - LRU: a most-recent-first list per node, linked through [prev] and
     [next] (object ids, -1 at either end) from [head] and [tail];
   - FIFO and LFU: the node's members in [slots] (row [n] of a
     nodes x capacity matrix). FIFO fills it as a ring whose oldest
     entry is at [ring.(n)]; LFU evicts the member with the least
     ([freq], [seq]), [seq] being the node's insertion counter. *)
let replay p ~capacity =
  if capacity < 0 then invalid_arg "Event_cache.replay: negative capacity";
  let { trace; nodes; objects; intervals; origin; latency; _ } = p in
  let cells = nodes * objects in
  let lru = p.policy = Policy_cache.Lru in
  let ring_cells = if lru then 0 else nodes * capacity in
  let held = Bytes.make cells '\000' in
  let count = Array.make nodes 0 in
  let copies = Array.make objects 0 in
  let prev = if lru then Array.make cells (-1) else [||] in
  let next = if lru then Array.make cells (-1) else [||] in
  let head = Array.make nodes (-1) and tail = Array.make nodes (-1) in
  let slots = Array.make ring_cells 0 and ring = Array.make nodes 0 in
  let lfu = p.policy = Policy_cache.Lfu in
  let freq = if lfu then Array.make cells 0 else [||] in
  let seq = if lfu then Array.make cells 0 else [||] in
  let next_seq = Array.make nodes 0 in
  let is_held c = Bytes.get held c <> '\000' in
  let push_front n k =
    let base = n * objects in
    let h = head.(n) in
    prev.(base + k) <- -1;
    next.(base + k) <- h;
    if h >= 0 then prev.(base + h) <- k else tail.(n) <- k;
    head.(n) <- k
  in
  let unlink n k =
    let base = n * objects in
    let pv = prev.(base + k) and nx = next.(base + k) in
    if pv >= 0 then next.(base + pv) <- nx else head.(n) <- nx;
    if nx >= 0 then prev.(base + nx) <- pv else tail.(n) <- pv
  in
  (* An access to a cached object: LRU moves it to the front, LFU counts
     it, FIFO ignores it. *)
  let touch n k =
    let c = (n * objects) + k in
    if is_held c then begin
      (match p.policy with
      | Policy_cache.Lru ->
        if head.(n) <> k then begin
          unlink n k;
          push_front n k
        end
      | Policy_cache.Lfu -> freq.(c) <- freq.(c) + 1
      | Policy_cache.Fifo -> ());
      true
    end
    else false
  in
  (* The member a full node gives up; FIFO and LFU hand its slot to [k]. *)
  let evict n k =
    match p.policy with
    | Policy_cache.Lru ->
      let v = tail.(n) in
      unlink n v;
      v
    | Policy_cache.Fifo ->
      let s = (n * capacity) + ring.(n) in
      let v = slots.(s) in
      slots.(s) <- k;
      ring.(n) <- (if ring.(n) + 1 = capacity then 0 else ring.(n) + 1);
      v
    | Policy_cache.Lfu ->
      let base = n * objects and row = n * capacity in
      let best = ref row in
      for s = row + 1 to row + capacity - 1 do
        let a = base + slots.(s) and b = base + slots.(!best) in
        if freq.(a) < freq.(b) || (freq.(a) = freq.(b) && seq.(a) < seq.(b))
        then best := s
      done;
      let v = slots.(!best) in
      slots.(!best) <- k;
      v
  in
  let insertions = ref 0 in
  let cache_insert n k =
    if n <> origin && p.placeable.(n) && capacity > 0 then begin
      let c = (n * objects) + k in
      if not (is_held c) then begin
        incr insertions;
        if count.(n) >= capacity then begin
          let v = evict n k in
          Bytes.set held ((n * objects) + v) '\000';
          copies.(v) <- copies.(v) - 1
        end
        else begin
          if not lru then slots.((n * capacity) + count.(n)) <- k;
          count.(n) <- count.(n) + 1
        end;
        Bytes.set held c '\001';
        copies.(k) <- copies.(k) + 1;
        match p.policy with
        | Policy_cache.Lru -> push_front n k
        | Policy_cache.Lfu ->
          freq.(c) <- 1;
          seq.(c) <- next_seq.(n);
          next_seq.(n) <- next_seq.(n) + 1
        | Policy_cache.Fifo -> ()
      end
      else ignore (touch n k)
    end
  in
  let run_prefetch plan i =
    for n = 0 to nodes - 1 do
      if n <> origin && p.placeable.(n) then begin
        let wanted = plan.(n).(i) in
        for j = 0 to min capacity (Array.length wanted) - 1 do
          cache_insert n wanted.(j)
        done
      end
    done
  in
  (* End-of-interval cache contents as an MC-PERF placement (bit [i]:
     cached when interval [i] closed) — the survivability layer re-prices
     it under failure scenarios. *)
  let placement = Array.make_matrix nodes objects 0 in
  let sample_interval iv =
    let bit = 1 lsl iv in
    for n = 0 to nodes - 1 do
      if n <> origin then begin
        let row = placement.(n) in
        if lru then begin
          let k = ref head.(n) in
          while !k >= 0 do
            row.(!k) <- row.(!k) lor bit;
            k := next.((n * objects) + !k)
          done
        end
        else
          for s = n * capacity to (n * capacity) + count.(n) - 1 do
            let k = slots.(s) in
            row.(k) <- row.(k) lor bit
          done
      end
    done
  in
  let hits_local = ref 0 and hits_remote = ref 0 and misses = ref 0 in
  let covered = Array.make nodes 0 and totals = Array.make nodes 0 in
  let latency_sum = Array.make nodes 0. in
  let write_messages = ref 0. in
  let cooperative = match p.mode with Local -> false | _ -> true in
  let hierarchical = match p.mode with Hierarchical _ -> true | _ -> false in
  for iv = 0 to intervals - 1 do
    Option.iter (fun plan -> run_prefetch plan iv) p.prefetch;
    for e = p.starts.(iv) to p.starts.(iv + 1) - 1 do
      let n = Workload.Trace.node trace e
      and k = Workload.Trace.object_id trace e in
      match Workload.Trace.kind trace e with
      | Workload.Trace.Write ->
        (* Writes refresh every cached copy in place: one update message
           per copy, accounted when delta is charged. *)
        write_messages := !write_messages +. float_of_int copies.(k)
      | Workload.Trace.Read ->
        totals.(n) <- totals.(n) + 1;
        let lat =
          if n = origin then 0.
          else if touch n k then begin
            incr hits_local;
            0.
          end
          else begin
            (* The nearest peer holding [k]: a remote hit when it is
               closer than the origin. No copy anywhere, no scan. *)
            let peer = ref (-1) in
            if cooperative && copies.(k) > 0 then begin
              let peers = p.peer_order.(n) in
              let j = ref 0 in
              while !peer < 0 && !j < Array.length peers do
                let m = peers.(!j) in
                if is_held ((m * objects) + k) then peer := m;
                incr j
              done
            end;
            let m = !peer in
            let to_origin = latency.(n).(origin) in
            if m >= 0 && latency.(n).(m) < to_origin then begin
              incr hits_remote;
              (* Hierarchical mode: a copy inside the cluster serves the
                 whole cluster; do not duplicate it locally. *)
              if hierarchical && p.clusters.(n) = p.clusters.(m) then
                ignore (touch m k)
              else cache_insert n k;
              latency.(n).(m)
            end
            else begin
              incr misses;
              cache_insert n k;
              to_origin
            end
          end
        in
        latency_sum.(n) <- latency_sum.(n) +. lat;
        if lat <= p.tlat_ms then covered.(n) <- covered.(n) + 1
    done;
    sample_interval iv
  done;
  let qos =
    Array.init nodes (fun n ->
        if totals.(n) = 0 then 1.
        else float_of_int covered.(n) /. float_of_int totals.(n))
  in
  let avg_latency =
    Array.init nodes (fun n ->
        if totals.(n) = 0 then 0.
        else latency_sum.(n) /. float_of_int totals.(n))
  in
  let costs = p.costs in
  let creation_cost = costs.Mcperf.Spec.beta *. float_of_int !insertions in
  let write_cost = costs.Mcperf.Spec.delta *. !write_messages in
  {
    hits_local = !hits_local;
    hits_remote = !hits_remote;
    misses = !misses;
    insertions = !insertions;
    qos;
    avg_latency;
    provisioned_cost =
      (costs.Mcperf.Spec.alpha *. float_of_int capacity
       *. float_of_int p.sites *. float_of_int intervals)
      +. creation_cost +. write_cost;
    write_messages = !write_messages;
    placement;
  }
