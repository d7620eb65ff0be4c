(* Reference oracle for Heuristics.Event_cache: the hash-table simulator
   it replaced, kept as it was — [Lru_cache] (an intrusive list of
   option-linked records behind a Hashtbl), [Policy_cache] (FIFO and LFU
   as a Hashtbl of entries with an O(size) eviction scan) and
   [simulate] (one pass over the trace that divides each event's time
   to find its interval, with a bitmask directory of at most 62 nodes).
   It shares no cache state, interval or directory code with the
   library's plan and replay, so the differential property in
   test_heuristics.ml can compare every outcome field of the two. *)

module Lru_cache = struct
  (* Intrusive doubly-linked list over array-free nodes; the hash table maps
     object id -> node. *)
  type node = {
    key : int;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    cap : int;
    table : (int, node) Hashtbl.t;
    mutable head : node option;  (* most recently used *)
    mutable tail : node option;  (* least recently used *)
    mutable count : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Lru_cache.create: negative capacity";
    { cap = capacity; table = Hashtbl.create 64; head = None; tail = None; count = 0 }

  let size t = t.count
  let mem t k = Hashtbl.mem t.table k

  let unlink t n =
    (match n.prev with
    | Some p -> p.next <- n.next
    | None -> t.head <- n.next);
    (match n.next with
    | Some s -> s.prev <- n.prev
    | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    n.prev <- None;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t k =
    match Hashtbl.find_opt t.table k with
    | None -> false
    | Some n ->
      unlink t n;
      push_front t n;
      true

  let evict_lru t =
    match t.tail with
    | None -> None
    | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.count <- t.count - 1;
      Some n.key

  let insert t k =
    if t.cap = 0 then Some k
    else if touch t k then None
    else begin
      let evicted = if t.count >= t.cap then evict_lru t else None in
      let n = { key = k; prev = None; next = None } in
      Hashtbl.add t.table k n;
      push_front t n;
      t.count <- t.count + 1;
      evicted
    end

  let contents t =
    let rec walk acc = function
      | None -> List.rev acc
      | Some n -> walk (n.key :: acc) n.next
    in
    walk [] t.head
end

module Policy_cache = struct
  type kind = Lru | Fifo | Lfu

  let kind_name = function Lru -> "lru" | Fifo -> "fifo" | Lfu -> "lfu"

  (* FIFO and LFU share a simple table-based representation; the eviction
     scan is O(size), which is fine at cache-simulation scales (the LRU
     variant keeps its O(1) structure). *)
  type entry = {
    mutable frequency : int;
    mutable sequence : int;  (* insertion order *)
  }

  type t =
    | Lru_impl of Lru_cache.t
    | Table of {
        kind : kind;
        cap : int;
        entries : (int, entry) Hashtbl.t;
        mutable next_sequence : int;
      }

  let create kind ~capacity =
    if capacity < 0 then invalid_arg "Policy_cache.create: negative capacity";
    match kind with
    | Lru -> Lru_impl (Lru_cache.create ~capacity)
    | Fifo | Lfu ->
      Table { kind; cap = capacity; entries = Hashtbl.create 64; next_sequence = 0 }

  let size = function
    | Lru_impl c -> Lru_cache.size c
    | Table t -> Hashtbl.length t.entries

  let mem t k =
    match t with
    | Lru_impl c -> Lru_cache.mem c k
    | Table t -> Hashtbl.mem t.entries k

  let touch t k =
    match t with
    | Lru_impl c -> Lru_cache.touch c k
    | Table t -> (
      match Hashtbl.find_opt t.entries k with
      | Some e ->
        e.frequency <- e.frequency + 1;
        true
      | None -> false)

  let evict_candidate (t : (int, entry) Hashtbl.t) kind =
    (* FIFO: smallest sequence. LFU: smallest frequency, ties by smallest
       sequence. *)
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | None -> Some (k, e)
        | Some (_, best) ->
          let better =
            match kind with
            | Fifo -> e.sequence < best.sequence
            | Lfu ->
              e.frequency < best.frequency
              || (e.frequency = best.frequency && e.sequence < best.sequence)
            | Lru -> assert false
          in
          if better then Some (k, e) else acc)
      t None

  let insert t k =
    match t with
    | Lru_impl c -> Lru_cache.insert c k
    | Table tb ->
      if tb.cap = 0 then Some k
      else if touch t k then None
      else begin
        let evicted =
          if Hashtbl.length tb.entries >= tb.cap then begin
            match evict_candidate tb.entries tb.kind with
            | Some (victim, _) ->
              Hashtbl.remove tb.entries victim;
              Some victim
            | None -> None
          end
          else None
        in
        Hashtbl.add tb.entries k { frequency = 1; sequence = tb.next_sequence };
        tb.next_sequence <- tb.next_sequence + 1;
        evicted
      end

  let contents = function
    | Lru_impl c -> Lru_cache.contents c
    | Table t -> Hashtbl.fold (fun k _ acc -> k :: acc) t.entries []
end

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

let simulate ~system ~trace ~intervals ~costs ~tlat_ms ~capacity ~mode
    ?(prefetch = false) ?placeable ?(policy = Policy_cache.Lru) () =
  let nodes = Topology.System.node_count system in
  if nodes > 62 then
    invalid_arg "Event_cache.simulate: at most 62 nodes supported";
  if capacity < 0 then invalid_arg "Event_cache.simulate: negative capacity";
  if intervals <= 0 || intervals > Mcperf.Spec.max_intervals then
    invalid_arg
      (Printf.sprintf "Event_cache.simulate: intervals must be in 1..%d"
         Mcperf.Spec.max_intervals);
  let origin = system.Topology.System.origin in
  let placeable =
    match placeable with
    | None -> Array.make nodes true
    | Some p ->
      if Array.length p <> nodes then
        invalid_arg "Event_cache.simulate: placeable length mismatch";
      p
  in
  let latency = system.Topology.System.latency in
  let objects = Workload.Trace.object_count trace in
  let caches =
    Array.init nodes (fun n ->
        Policy_cache.create policy
          ~capacity:(if placeable.(n) then capacity else 0))
  in
  (* Directory for cooperative lookup: per object, bitmask of caching
     nodes. *)
  let holders = Array.make objects 0 in
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
  let insertions = ref 0 in
  let hits_local = ref 0 and hits_remote = ref 0 and misses = ref 0 in
  let covered = Array.make nodes 0 and totals = Array.make nodes 0 in
  let latency_sum = Array.make nodes 0. in
  let write_messages = ref 0. in
  (* End-of-interval cache contents as an MC-PERF placement (bit [i]:
     cached when interval [i] closed) — the survivability layer re-prices
     it under failure scenarios. *)
  let placement = Array.make_matrix nodes objects 0 in
  let interval_s = Workload.Trace.duration_s trace /. float_of_int intervals in
  let cache_insert n k =
    if n <> origin && placeable.(n) && capacity > 0 then begin
      if not (Policy_cache.mem caches.(n) k) then begin
        incr insertions;
        (match Policy_cache.insert caches.(n) k with
        | Some evicted ->
          if evicted <> k then
            holders.(evicted) <- holders.(evicted) land lnot (1 lsl n)
        | None -> ());
        if Policy_cache.mem caches.(n) k then
          holders.(k) <- holders.(k) lor (1 lsl n)
      end
      else ignore (Policy_cache.touch caches.(n) k)
    end
  in
  (* Objects each node accesses per interval, for the prefetch oracle. *)
  let prefetch_plan =
    if not prefetch then [||]
    else begin
      let plan = Array.init nodes (fun _ -> Array.make intervals []) in
      let counts = Hashtbl.create 1024 in
      Workload.Trace.iter
        (fun ~time ~node ~object_id ~kind ->
          if kind = Workload.Trace.Read then begin
            let i =
              min (intervals - 1) (int_of_float (time /. interval_s))
            in
            let key = (node, i, object_id) in
            Hashtbl.replace counts key
              (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
          end)
        trace;
      Hashtbl.iter
        (fun (n, i, k) c -> plan.(n).(i) <- (c, k) :: plan.(n).(i))
        counts;
      Array.iteri
        (fun n per_interval ->
          Array.iteri
            (fun i entries ->
              plan.(n).(i) <-
                List.sort (fun (c1, _) (c2, _) -> compare c2 c1) entries)
            per_interval;
          ignore n)
        plan;
      plan
    end
  in
  let run_prefetch i =
    for n = 0 to nodes - 1 do
      if n <> origin && placeable.(n) then begin
        let budget = ref capacity in
        List.iter
          (fun (_, k) ->
            if !budget > 0 then begin
              cache_insert n k;
              decr budget
            end)
          prefetch_plan.(n).(i)
      end
    done
  in
  let sample_interval iv =
    for n = 0 to nodes - 1 do
      if n <> origin then
        List.iter
          (fun k -> placement.(n).(k) <- placement.(n).(k) lor (1 lsl iv))
          (Policy_cache.contents caches.(n))
    done
  in
  let current_interval = ref (-1) in
  let enter_interval i =
    while !current_interval < i do
      if !current_interval >= 0 then sample_interval !current_interval;
      incr current_interval;
      if prefetch && !current_interval < intervals then
        run_prefetch !current_interval
    done
  in
  enter_interval 0;
  Workload.Trace.iter
    (fun ~time ~node:n ~object_id:k ~kind ->
      let i = min (intervals - 1) (int_of_float (time /. interval_s)) in
      enter_interval i;
      match kind with
      | Workload.Trace.Write ->
        (* Writes refresh every cached copy in place: one update message
           per copy, accounted when delta is charged. *)
        let copies = ref 0 in
        for m = 0 to nodes - 1 do
          if holders.(k) land (1 lsl m) <> 0 then incr copies
        done;
        write_messages := !write_messages +. float_of_int !copies
      | Workload.Trace.Read ->
        totals.(n) <- totals.(n) + 1;
        let lat =
          if n = origin then 0.
          else if Policy_cache.touch caches.(n) k then begin
            incr hits_local;
            0.
          end
          else begin
            let from_peer =
              match mode with
              | Local -> None
              | Cooperative | Hierarchical _ ->
                Array.fold_left
                  (fun acc m ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                      if holders.(k) land (1 lsl m) <> 0 then Some m else None)
                  None peer_order.(n)
            in
            (match from_peer with
            | Some m when latency.(n).(m) < latency.(n).(origin) ->
              incr hits_remote;
              (* Hierarchical mode: a copy inside the cluster serves the
                 whole cluster; do not duplicate it locally. *)
              let same_cluster =
                match mode with
                | Hierarchical _ -> clusters.(n) = clusters.(m)
                | Local | Cooperative -> false
              in
              if same_cluster then ignore (Policy_cache.touch caches.(m) k)
              else cache_insert n k;
              latency.(n).(m)
            | Some _ | None ->
              incr misses;
              cache_insert n k;
              latency.(n).(origin))
          end
        in
        latency_sum.(n) <- latency_sum.(n) +. lat;
        if lat <= tlat_ms then covered.(n) <- covered.(n) + 1)
    trace;
  enter_interval (intervals - 1);
  (* Final interval's sample. *)
  sample_interval (intervals - 1);
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
  let sites =
    let acc = ref 0 in
    for n = 0 to nodes - 1 do
      if n <> origin && placeable.(n) then incr acc
    done;
    float_of_int !acc
  in
  let creation_cost =
    costs.Mcperf.Spec.beta *. float_of_int !insertions
  in
  let write_cost = costs.Mcperf.Spec.delta *. !write_messages in
  {
    hits_local = !hits_local;
    hits_remote = !hits_remote;
    misses = !misses;
    insertions = !insertions;
    qos;
    avg_latency;
    provisioned_cost =
      (costs.Mcperf.Spec.alpha *. float_of_int capacity *. sites
      *. float_of_int intervals)
      +. creation_cost +. write_cost;
    write_messages = !write_messages;
    placement;
  }
