type t = { name : string; members : int array }

(* BFS tree from the origin with neighbours visited in ascending node id,
   so the parent/children structure — and hence every subtree group — is
   a pure function of the graph. *)
let bfs_children graph ~origin =
  let nodes = Topology.Graph.node_count graph in
  let parent = Array.make nodes (-1) in
  let seen = Array.make nodes false in
  let children = Array.make nodes [] in
  seen.(origin) <- true;
  let queue = Queue.create () in
  Queue.add origin queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let next =
      List.sort compare (List.map fst (Topology.Graph.neighbors graph v))
    in
    List.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          parent.(u) <- v;
          children.(v) <- u :: children.(v);
          Queue.add u queue
        end)
      next
  done;
  Array.iteri (fun v cs -> children.(v) <- List.rev cs) children;
  children

let descendants children v =
  let acc = ref [] in
  let rec walk u =
    acc := u :: !acc;
    List.iter walk children.(u)
  in
  walk v;
  List.sort compare !acc

let derive (sys : Topology.System.t) =
  let graph = sys.Topology.System.graph in
  let origin = sys.Topology.System.origin in
  let nodes = Topology.Graph.node_count graph in
  let children = bfs_children graph ~origin in
  let seen_sets = Hashtbl.create 16 in
  let out = ref [] in
  let add name members =
    let members = Array.of_list members in
    if Array.length members >= 2 then begin
      let key =
        String.concat "," (Array.to_list (Array.map string_of_int members))
      in
      if not (Hashtbl.mem seen_sets key) then begin
        Hashtbl.add seen_sets key ();
        out := { name; members } :: !out
      end
    end
  in
  (* Subtree groups: every internal non-origin node of the BFS tree. *)
  for v = 0 to nodes - 1 do
    if v <> origin && children.(v) <> [] then
      add (Printf.sprintf "subtree-%d" v) (descendants children v)
  done;
  (* Star groups: a hub plus its degree-1 neighbours. *)
  for h = 0 to nodes - 1 do
    if h <> origin then begin
      let leaves =
        List.filter_map
          (fun (u, _) ->
            if u <> origin && Topology.Graph.degree graph u = 1 then Some u
            else None)
          (Topology.Graph.neighbors graph h)
      in
      if leaves <> [] then add (Printf.sprintf "star-%d" h) (List.sort compare (h :: leaves))
    end
  done;
  Array.of_list (List.rev !out)
