type latency_range = { lo_ms : float; hi_ms : float }

let default_hop_latency = { lo_ms = 100.; hi_ms = 200. }

let draw_latency rng { lo_ms; hi_ms } =
  if lo_ms < 0. || hi_ms < lo_ms then invalid_arg "Generate: bad latency range";
  if hi_ms = lo_ms then lo_ms else Util.Prng.uniform rng ~lo:lo_ms ~hi:hi_ms

(* Extra random edges per node, for the meshier core of real AS graphs. *)
let extra_edge_fraction = 0.3

let as_like ~rng ~nodes ~latency =
  if nodes < 1 then invalid_arg "Generate.as_like: need at least one node";
  let g = Graph.create nodes in
  (* Preferential attachment: endpoints of existing edges, each listed once
     per incidence, form the attachment pool, so a node's pick probability
     is proportional to its degree. *)
  let pool = ref [ 0 ] in
  for v = 1 to nodes - 1 do
    let pool_arr = Array.of_list !pool in
    let target = pool_arr.(Util.Prng.int rng (Array.length pool_arr)) in
    Graph.add_edge g v target (draw_latency rng latency);
    pool := v :: target :: !pool
  done;
  let extra = int_of_float (Float.round (extra_edge_fraction *. float_of_int nodes)) in
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extra && !attempts < 50 * (extra + 1) do
    incr attempts;
    let u = Util.Prng.int rng nodes and v = Util.Prng.int rng nodes in
    if u <> v && not (Graph.has_edge g u v) then begin
      Graph.add_edge g u v (draw_latency rng latency);
      incr added
    end
  done;
  g

let ring ~rng ~nodes ~latency =
  if nodes < 1 then invalid_arg "Generate.ring: need at least one node";
  let g = Graph.create nodes in
  if nodes = 2 then Graph.add_edge g 0 1 (draw_latency rng latency)
  else if nodes > 2 then
    for v = 0 to nodes - 1 do
      Graph.add_edge g v ((v + 1) mod nodes) (draw_latency rng latency)
    done;
  g

let star ~rng ~nodes ~latency =
  if nodes < 1 then invalid_arg "Generate.star: need at least one node";
  let g = Graph.create nodes in
  for v = 1 to nodes - 1 do
    Graph.add_edge g 0 v (draw_latency rng latency)
  done;
  g

let grid ~rng ~width ~height ~latency =
  if width < 1 || height < 1 then invalid_arg "Generate.grid: bad dimensions";
  let g = Graph.create (width * height) in
  let id x y = (y * width) + x in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then
        Graph.add_edge g (id x y) (id (x + 1) y) (draw_latency rng latency);
      if y + 1 < height then
        Graph.add_edge g (id x y) (id x (y + 1)) (draw_latency rng latency)
    done
  done;
  g

let clique ~rng ~nodes ~latency =
  if nodes < 1 then invalid_arg "Generate.clique: need at least one node";
  let g = Graph.create nodes in
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      Graph.add_edge g u v (draw_latency rng latency)
    done
  done;
  g

(* --- tree family ---------------------------------------------------------
   Rooted trees for the exact closest-allocation DP (Bounds.Tree_dp): the
   root is always node 0 and plays the origin/data-center role, children
   carry higher ids than their parents, so a single left-to-right scan of
   the node ids is already a valid top-down order. *)

let balanced_tree ~rng ~fanout ~depth ~latency =
  if fanout < 1 then invalid_arg "Generate.balanced_tree: fanout must be >= 1";
  if depth < 0 then invalid_arg "Generate.balanced_tree: negative depth";
  (* nodes = 1 + f + f^2 + ... + f^depth *)
  let nodes = ref 1 and layer = ref 1 in
  for _ = 1 to depth do
    layer := !layer * fanout;
    nodes := !nodes + !layer
  done;
  let g = Graph.create !nodes in
  let next = ref 1 in
  let rec grow parent level =
    if level < depth then
      for _ = 1 to fanout do
        let v = !next in
        incr next;
        Graph.add_edge g parent v (draw_latency rng latency);
        grow v (level + 1)
      done
  in
  grow 0 0;
  g

let random_tree ~rng ~nodes ~latency =
  if nodes < 1 then invalid_arg "Generate.random_tree: need at least one node";
  let g = Graph.create nodes in
  (* Uniform random attachment: node v picks any earlier node as its
     parent, giving the broad mix of stars, paths and caterpillars the
     differential tests want to sample. *)
  for v = 1 to nodes - 1 do
    Graph.add_edge g v (Util.Prng.int rng v) (draw_latency rng latency)
  done;
  g

let cdn_hierarchy ~rng ~fanouts ~tier_latency () =
  if fanouts = [] then invalid_arg "Generate.cdn_hierarchy: empty fanouts";
  if List.length fanouts <> List.length tier_latency then
    invalid_arg "Generate.cdn_hierarchy: one latency range per tier";
  List.iter
    (fun f -> if f < 1 then invalid_arg "Generate.cdn_hierarchy: bad fanout")
    fanouts;
  let nodes = ref 1 and layer = ref 1 in
  List.iter
    (fun f ->
      layer := !layer * f;
      nodes := !nodes + !layer)
    fanouts;
  let g = Graph.create !nodes in
  let next = ref 1 in
  (* Tier by tier: the origin feeds regional servers over fast backbone
     links, regions feed edge clusters over slower links, so storage
     trade-offs differ per level — the heterogeneous-latency axis of the
     tree scenario family. *)
  let rec grow parents tiers =
    match tiers with
    | [] -> ()
    | (fanout, latency) :: rest ->
      let children =
        List.concat_map
          (fun parent ->
            List.init fanout (fun _ ->
                let v = !next in
                incr next;
                Graph.add_edge g parent v (draw_latency rng latency);
                v))
          parents
      in
      grow children rest
  in
  grow [ 0 ] (List.combine fanouts tier_latency);
  g

let headquarters g =
  let n = Graph.node_count g in
  if n = 0 then invalid_arg "Generate.headquarters: empty graph";
  let best = ref 0 in
  for v = 1 to n - 1 do
    if Graph.degree g v > Graph.degree g !best then best := v
  done;
  !best
