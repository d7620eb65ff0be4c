type t = {
  nodes : int;
  interval_s : float;
  demand : Demand.t option;
  chunks : int;
  events : int;
  reads : int;
  writes : int;
  node_reads : float array;
  object_reads : float array;
  first_read : int array;
  last_read : int array;
}

let create ~nodes ~interval_s =
  if nodes <= 0 then invalid_arg "Incremental.create: need positive nodes";
  if interval_s <= 0. then
    invalid_arg "Incremental.create: interval_s must be positive";
  {
    nodes;
    interval_s;
    demand = None;
    chunks = 0;
    events = 0;
    reads = 0;
    writes = 0;
    node_reads = Array.make nodes 0.;
    object_reads = [||];
    first_read = [||];
    last_read = [||];
  }

let intervals t =
  match t.demand with None -> 0 | Some d -> d.Demand.intervals

let demand t =
  match t.demand with
  | Some d -> d
  | None -> invalid_arg "Incremental.demand: no chunk ingested yet"

let chunks t = t.chunks
let events t = t.events
let reads t = t.reads
let writes t = t.writes
let object_count t = Array.length t.object_reads

let first_read_interval t k =
  if t.first_read.(k) < 0 then None else Some t.first_read.(k)

let working_set t ~window =
  if window <= 0 then invalid_arg "Incremental.working_set: window must be > 0";
  let horizon = intervals t - window in
  let n = ref 0 in
  Array.iter (fun last -> if last >= horizon && last >= 0 then incr n) t.last_read;
  !n

let grow_int arr n fill =
  if Array.length arr >= n then arr
  else Array.append arr (Array.make (n - Array.length arr) fill)

let grow_float arr n =
  if Array.length arr >= n then arr
  else Array.append arr (Array.make (n - Array.length arr) 0.)

let extend t chunk =
  if Trace.node_count chunk <> t.nodes then
    invalid_arg "Incremental.extend: node counts differ";
  let demand =
    match t.demand with
    | None ->
      let dur = Trace.duration_s chunk in
      let k = int_of_float (Float.round (dur /. t.interval_s)) in
      if k <= 0 then
        invalid_arg "Incremental.extend: chunk shorter than one interval";
      Demand.of_trace ~interval_s:t.interval_s ~intervals:k chunk
    | Some d -> Demand.extend d chunk
  in
  let objects = demand.Demand.objects in
  let node_reads = Array.copy t.node_reads in
  let object_reads = grow_float t.object_reads objects in
  let first_read = grow_int t.first_read objects (-1) in
  let last_read = grow_int t.last_read objects (-1) in
  let total = demand.Demand.intervals in
  let base = intervals t in
  let nreads = ref t.reads and nwrites = ref t.writes in
  Trace.iter
    (fun ~time ~node ~object_id ~kind ->
      match kind with
      | Trace.Write -> incr nwrites
      | Trace.Read ->
        incr nreads;
        let interval =
          max base (min (total - 1) (int_of_float (time /. t.interval_s)))
        in
        node_reads.(node) <- node_reads.(node) +. 1.;
        object_reads.(object_id) <- object_reads.(object_id) +. 1.;
        if first_read.(object_id) < 0 then first_read.(object_id) <- interval;
        last_read.(object_id) <- max last_read.(object_id) interval)
    chunk;
  {
    t with
    demand = Some demand;
    chunks = t.chunks + 1;
    events = t.events + Trace.length chunk;
    reads = !nreads;
    writes = !nwrites;
    node_reads;
    object_reads;
    first_read;
    last_read;
  }
