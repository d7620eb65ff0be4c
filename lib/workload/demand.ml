type cell = { node : int; interval : int; count : float }

type t = {
  nodes : int;
  intervals : int;
  objects : int;
  interval_s : float;
  reads : cell array array;
  writes : cell array array;
  weight : float array;
}

let cell_order a b =
  match compare a.interval b.interval with
  | 0 -> compare a.node b.node
  | c -> c

let validate_cells t name cells =
  Array.iteri
    (fun k per_object ->
      ignore k;
      Array.iteri
        (fun i c ->
          if c.node < 0 || c.node >= t.nodes then
            invalid_arg (name ^ ": cell node out of range");
          if c.interval < 0 || c.interval >= t.intervals then
            invalid_arg (name ^ ": cell interval out of range");
          if c.count <= 0. then
            invalid_arg (name ^ ": cell count must be positive");
          if i > 0 && cell_order per_object.(i - 1) c >= 0 then
            invalid_arg (name ^ ": cells must be sorted and unique"))
        per_object)
    cells

let create ~nodes ~intervals ~interval_s ?weight ?writes ~reads () =
  if nodes <= 0 || intervals <= 0 then
    invalid_arg "Demand.create: need positive node and interval counts";
  if interval_s <= 0. then invalid_arg "Demand.create: interval_s must be positive";
  let objects = Array.length reads in
  let weight =
    match weight with
    | None -> Array.make objects 1.
    | Some w ->
      if Array.length w <> objects then
        invalid_arg "Demand.create: weight length must equal object count";
      Array.iter
        (fun x -> if x < 1. then invalid_arg "Demand.create: weights must be >= 1")
        w;
      Array.copy w
  in
  let writes =
    match writes with
    | None -> Array.make objects [||]
    | Some w ->
      if Array.length w <> objects then
        invalid_arg "Demand.create: writes length must equal object count";
      w
  in
  let t = { nodes; intervals; objects; interval_s; reads; writes; weight } in
  validate_cells t "Demand.create reads" reads;
  validate_cells t "Demand.create writes" writes;
  t

let of_trace ?interval_s ~intervals trace =
  if intervals <= 0 then invalid_arg "Demand.of_trace: intervals must be positive";
  let nodes = Trace.node_count trace in
  let objects = Trace.object_count trace in
  let duration = Trace.duration_s trace in
  let interval_s =
    match interval_s with
    | None -> duration /. float_of_int intervals
    | Some s ->
      (* An explicit width lets chunked loads share the exact bucket
         arithmetic of a whole-trace load (Float division of a sliced
         horizon can differ by an ulp). *)
      if s <= 0. then invalid_arg "Demand.of_trace: interval_s must be positive";
      if Float.abs ((s *. float_of_int intervals) -. duration) > 1e-6 *. s then
        invalid_arg "Demand.of_trace: interval_s inconsistent with duration";
      s
  in
  let read_tbl = Hashtbl.create 4096 and write_tbl = Hashtbl.create 64 in
  let bump tbl key =
    match Hashtbl.find_opt tbl key with
    | Some c -> Hashtbl.replace tbl key (c +. 1.)
    | None -> Hashtbl.add tbl key 1.
  in
  Trace.iter
    (fun ~time ~node ~object_id ~kind ->
      let interval =
        min (intervals - 1) (int_of_float (time /. interval_s))
      in
      let key = (object_id, interval, node) in
      match kind with
      | Trace.Read -> bump read_tbl key
      | Trace.Write -> bump write_tbl key)
    trace;
  let collect tbl =
    let per_object = Array.make objects [] in
    Hashtbl.iter
      (fun (k, i, n) c ->
        per_object.(k) <- { node = n; interval = i; count = c } :: per_object.(k))
      tbl;
    Array.map
      (fun cells ->
        let arr = Array.of_list cells in
        Array.sort cell_order arr;
        arr)
      per_object
  in
  create ~nodes ~intervals ~interval_s ~writes:(collect write_tbl)
    ~reads:(collect read_tbl) ()

let extend t delta =
  if Trace.node_count delta <> t.nodes then
    invalid_arg "Demand.extend: node counts differ";
  let duration = Trace.duration_s delta in
  let total_f = Float.round (duration /. t.interval_s) in
  if Float.abs ((total_f *. t.interval_s) -. duration) > 1e-6 *. t.interval_s
  then invalid_arg "Demand.extend: horizon not a whole number of intervals";
  let total = int_of_float total_f in
  if total <= t.intervals then
    invalid_arg "Demand.extend: continuation must add at least one interval";
  let objects = max t.objects (Trace.object_count delta) in
  let read_tbl = Hashtbl.create 1024 and write_tbl = Hashtbl.create 64 in
  let bump tbl key =
    match Hashtbl.find_opt tbl key with
    | Some c -> Hashtbl.replace tbl key (c +. 1.)
    | None -> Hashtbl.add tbl key 1.
  in
  Trace.iter
    (fun ~time ~node ~object_id ~kind ->
      (* Identical arithmetic to [of_trace] on the whole trace (times in
         the chunk are absolute), with a floor at the already-bucketed
         prefix so the appended cells stay in the new intervals. *)
      let interval =
        max t.intervals (min (total - 1) (int_of_float (time /. t.interval_s)))
      in
      let key = (object_id, interval, node) in
      match kind with
      | Trace.Read -> bump read_tbl key
      | Trace.Write -> bump write_tbl key)
    delta;
  let fresh tbl =
    let per_object = Array.make objects [] in
    Hashtbl.iter
      (fun (k, i, n) c ->
        per_object.(k) <- { node = n; interval = i; count = c } :: per_object.(k))
      tbl;
    Array.map
      (fun cells ->
        let arr = Array.of_list cells in
        Array.sort cell_order arr;
        arr)
      per_object
  in
  let grow old fresh_cells =
    Array.init objects (fun k ->
        let old_cells = if k < Array.length old then old.(k) else [||] in
        if Array.length fresh_cells.(k) = 0 then old_cells
        else Array.append old_cells fresh_cells.(k))
  in
  (* New cells all land in intervals >= t.intervals, past every existing
     cell, so per-object ordering is preserved and the O(delta) append
     needs no re-validation of the prefix. *)
  {
    nodes = t.nodes;
    intervals = total;
    objects;
    interval_s = t.interval_s;
    reads = grow t.reads (fresh read_tbl);
    writes = grow t.writes (fresh write_tbl);
    weight =
      (if objects = t.objects then t.weight
       else Array.append t.weight (Array.make (objects - t.objects) 1.));
  }

let read_at t ~node ~interval ~object_id =
  let cells = t.reads.(object_id) in
  let probe = { node; interval; count = 1. } in
  let rec search lo hi =
    if lo > hi then 0.
    else
      let mid = (lo + hi) / 2 in
      match cell_order cells.(mid) probe with
      | 0 -> cells.(mid).count
      | c when c < 0 -> search (mid + 1) hi
      | _ -> search lo (mid - 1)
  in
  search 0 (Array.length cells - 1)

let total_reads t =
  let acc = ref 0. in
  Array.iteri
    (fun k cells ->
      Array.iter (fun c -> acc := !acc +. (c.count *. t.weight.(k))) cells)
    t.reads;
  !acc

let node_read_totals t =
  let totals = Array.make t.nodes 0. in
  Array.iteri
    (fun k cells ->
      Array.iter
        (fun c -> totals.(c.node) <- totals.(c.node) +. (c.count *. t.weight.(k)))
        cells)
    t.reads;
  totals

let object_total t k =
  Array.fold_left (fun acc c -> acc +. c.count) 0. t.reads.(k)

let merge_cells cells =
  (* Combine duplicate (interval, node) cells produced by a node remap. *)
  let arr = Array.copy cells in
  Array.sort cell_order arr;
  let out = ref [] in
  Array.iter
    (fun c ->
      match !out with
      | prev :: rest when cell_order prev c = 0 ->
        out := { prev with count = prev.count +. c.count } :: rest
      | _ -> out := c :: !out)
    arr;
  Array.of_list (List.rev !out)

let remap_nodes t ~mapping =
  if Array.length mapping <> t.nodes then
    invalid_arg "Demand.remap_nodes: mapping length must equal node count";
  Array.iter
    (fun m ->
      if m < 0 || m >= t.nodes then
        invalid_arg "Demand.remap_nodes: mapping target out of range")
    mapping;
  let remap cells =
    merge_cells (Array.map (fun c -> { c with node = mapping.(c.node) }) cells)
  in
  {
    t with
    reads = Array.map remap t.reads;
    writes = Array.map remap t.writes;
  }

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>demand: %d nodes, %d intervals (%.0fs each), %d object classes@,\
     total reads (weighted): %.0f@]"
    t.nodes t.intervals t.interval_s t.objects (total_reads t)
