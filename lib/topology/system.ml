type t = {
  graph : Graph.t;
  latency : float array array;
  origin : int;
}

let make ?origin graph =
  if not (Graph.is_connected graph) then
    invalid_arg "System.make: graph must be connected";
  let origin =
    match origin with
    | Some o ->
      if o < 0 || o >= Graph.node_count graph then
        invalid_arg "System.make: origin out of range";
      o
    | None -> Generate.headquarters graph
  in
  { graph; latency = Shortest_path.all_pairs graph; origin }

let node_count sys = Graph.node_count sys.graph

let within_threshold sys ~tlat =
  if tlat < 0. then invalid_arg "System.within_threshold: negative threshold";
  let n = node_count sys in
  Array.init n (fun i -> Array.init n (fun j -> sys.latency.(i).(j) <= tlat))

type routing = Route_local | Route_global

type knowledge =
  | Know_local
  | Know_global
  | Know_custom of bool array array

let check_square name n m =
  if Array.length m <> n || Array.exists (fun row -> Array.length row <> n) m
  then invalid_arg (name ^ ": matrix must be node_count x node_count")

let fetch_matrix sys r =
  let n = node_count sys in
  let base =
    match r with
    | Route_local -> Array.make_matrix n n false
    | Route_global -> Array.make_matrix n n true
  in
  for i = 0 to n - 1 do
    base.(i).(i) <- true;
    base.(i).(sys.origin) <- true
  done;
  base

let know_matrix sys k =
  let n = node_count sys in
  let base =
    match k with
    | Know_local -> Array.make_matrix n n false
    | Know_global -> Array.make_matrix n n true
    | Know_custom m ->
      check_square "System.know_matrix" n m;
      Array.map Array.copy m
  in
  for i = 0 to n - 1 do
    base.(i).(i) <- true
  done;
  base

let effective_reach sys ~tlat r =
  let dist = within_threshold sys ~tlat in
  let fetch = fetch_matrix sys r in
  let n = node_count sys in
  Array.init n (fun i -> Array.init n (fun j -> dist.(i).(j) && fetch.(i).(j)))
