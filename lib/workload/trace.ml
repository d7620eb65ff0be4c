type kind = Read | Write

type t = {
  nodes : int;
  objects : int;
  duration_s : float;
  times : float array;
  event_nodes : int array;
  event_objects : int array;
  kinds : kind array;
}

let length t = Array.length t.times
let duration_s t = t.duration_s
let node_count t = t.nodes
let object_count t = t.objects

let time t i = t.times.(i)
let node t i = t.event_nodes.(i)
let object_id t i = t.event_objects.(i)
let kind t i = t.kinds.(i)

let iter f t =
  for i = 0 to length t - 1 do
    f ~time:t.times.(i) ~node:t.event_nodes.(i) ~object_id:t.event_objects.(i)
      ~kind:t.kinds.(i)
  done

let validate t =
  let n = length t in
  if
    Array.length t.event_nodes <> n
    || Array.length t.event_objects <> n
    || Array.length t.kinds <> n
  then invalid_arg "Trace: field arrays must have equal lengths";
  if t.duration_s <= 0. then invalid_arg "Trace: duration must be positive";
  for i = 0 to n - 1 do
    if t.times.(i) < 0. || t.times.(i) >= t.duration_s then
      invalid_arg "Trace: event time outside [0, duration)";
    if t.event_nodes.(i) < 0 || t.event_nodes.(i) >= t.nodes then
      invalid_arg "Trace: node out of range";
    if t.event_objects.(i) < 0 || t.event_objects.(i) >= t.objects then
      invalid_arg "Trace: object out of range";
    if i > 0 && t.times.(i) < t.times.(i - 1) then
      invalid_arg "Trace: events not sorted by time"
  done;
  t

let of_events ~nodes ~objects ~duration_s events =
  let arr = Array.of_list events in
  Array.sort (fun (t1, _, _, _) (t2, _, _, _) -> compare t1 t2) arr;
  let n = Array.length arr in
  let times = Array.make n 0.
  and event_nodes = Array.make n 0
  and event_objects = Array.make n 0
  and kinds = Array.make n Read in
  Array.iteri
    (fun i (t, nd, k, kd) ->
      times.(i) <- t;
      event_nodes.(i) <- nd;
      event_objects.(i) <- k;
      kinds.(i) <- kd)
    arr;
  validate
    { nodes; objects; duration_s; times; event_nodes; event_objects; kinds }

let create_unsafe ~nodes ~objects ~duration_s ~times ~event_nodes
    ~event_objects ~kinds =
  validate
    { nodes; objects; duration_s; times; event_nodes; event_objects; kinds }

let sub t ~lo ~hi ~duration_s =
  if lo < 0 || hi > length t || lo > hi then
    invalid_arg "Trace.sub: index range out of bounds";
  let n = hi - lo in
  validate
    {
      nodes = t.nodes;
      objects = t.objects;
      duration_s;
      times = Array.sub t.times lo n;
      event_nodes = Array.sub t.event_nodes lo n;
      event_objects = Array.sub t.event_objects lo n;
      kinds = Array.sub t.kinds lo n;
    }

let extend t delta =
  if delta.nodes <> t.nodes then
    invalid_arg "Trace.extend: node counts differ";
  if delta.duration_s <= t.duration_s then
    invalid_arg "Trace.extend: continuation must extend the horizon";
  let n1 = length t in
  if n1 > 0 && length delta > 0 && delta.times.(0) < t.times.(n1 - 1) then
    invalid_arg "Trace.extend: continuation events precede existing ones";
  validate
    {
      nodes = t.nodes;
      objects = max t.objects delta.objects;
      duration_s = delta.duration_s;
      times = Array.append t.times delta.times;
      event_nodes = Array.append t.event_nodes delta.event_nodes;
      event_objects = Array.append t.event_objects delta.event_objects;
      kinds = Array.append t.kinds delta.kinds;
    }

let count_kind t k =
  Array.fold_left (fun acc kd -> if kd = k then acc + 1 else acc) 0 t.kinds

let read_count t = count_kind t Read
let write_count t = count_kind t Write

let remap_nodes t ~mapping =
  if Array.length mapping <> t.nodes then
    invalid_arg "Trace.remap_nodes: mapping length must equal node count";
  Array.iter
    (fun m ->
      if m < 0 || m >= t.nodes then
        invalid_arg "Trace.remap_nodes: mapping target out of range")
    mapping;
  { t with event_nodes = Array.map (fun n -> mapping.(n)) t.event_nodes }
