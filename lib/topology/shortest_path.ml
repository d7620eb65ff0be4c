let dijkstra g src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let settled = Array.make n false in
  let heap = Util.Pqueue.create () in
  dist.(src) <- 0.;
  Util.Pqueue.push heap 0. src;
  let rec drain () =
    match Util.Pqueue.pop_min heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        let relax (v, w) =
          let cand = d +. w in
          if cand < dist.(v) then begin
            dist.(v) <- cand;
            Util.Pqueue.push heap cand v
          end
        in
        List.iter relax (Graph.neighbors g u)
      end;
      drain ()
  in
  drain ();
  dist

let all_pairs g =
  Array.init (Graph.node_count g) (fun src -> dijkstra g src)

let floyd_warshall g =
  let n = Graph.node_count g in
  let d = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.
  done;
  List.iter
    (fun (u, v, w) ->
      if w < d.(u).(v) then begin
        d.(u).(v) <- w;
        d.(v).(u) <- w
      end)
    (Graph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = d.(i).(k) +. d.(k).(j) in
        if via < d.(i).(j) then d.(i).(j) <- via
      done
    done
  done;
  d
