type t = {
  nodes : int;
  interval_s : float;
  demand : Demand.t option;
  events : int;
  last_read : int array;
}

let create ~nodes ~interval_s =
  if nodes <= 0 then invalid_arg "Incremental.create: need positive nodes";
  if interval_s <= 0. then
    invalid_arg "Incremental.create: interval_s must be positive";
  { nodes; interval_s; demand = None; events = 0; last_read = [||] }

let intervals t =
  match t.demand with None -> 0 | Some d -> d.Demand.intervals

let demand t =
  match t.demand with
  | Some d -> d
  | None -> invalid_arg "Incremental.demand: no chunk ingested yet"

let events t = t.events

let working_set t ~window =
  if window <= 0 then invalid_arg "Incremental.working_set: window must be > 0";
  let horizon = intervals t - window in
  let n = ref 0 in
  Array.iter (fun last -> if last >= horizon && last >= 0 then incr n) t.last_read;
  !n

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
  let last_read =
    let grown = demand.Demand.objects - Array.length t.last_read in
    if grown <= 0 then t.last_read
    else Array.append t.last_read (Array.make grown (-1))
  in
  let total = demand.Demand.intervals in
  let base = intervals t in
  Trace.iter
    (fun ~time ~node:_ ~object_id ~kind ->
      match kind with
      | Trace.Write -> ()
      | Trace.Read ->
        let interval =
          max base (min (total - 1) (int_of_float (time /. t.interval_s)))
        in
        last_read.(object_id) <- max last_read.(object_id) interval)
    chunk;
  {
    t with
    demand = Some demand;
    events = t.events + Trace.length chunk;
    last_read;
  }
