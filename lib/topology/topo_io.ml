let header_prefix = "# replica-select topology v1"

let to_buffer ?origin buf g =
  Buffer.add_string buf
    (Printf.sprintf "%s nodes=%d%s\n" header_prefix (Graph.node_count g)
       (match origin with
       | Some o -> Printf.sprintf " origin=%d" o
       | None -> ""));
  Buffer.add_string buf "u,v,latency_ms\n";
  (* Piecewise rows: only the latency goes through a format string (its
     "%.9g" rendering is pinned by the golden fixtures); [string_of_int]
     emits exactly what "%d" would. *)
  List.iter
    (fun (u, v, w) ->
      Buffer.add_string buf (string_of_int u);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%.9g" w);
      Buffer.add_char buf '\n')
    (Graph.edges g)

let to_string ?origin g =
  let buf = Buffer.create 1024 in
  to_buffer ?origin buf g;
  Buffer.contents buf

let save ?origin g ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      to_buffer ?origin buf g;
      Buffer.output_buffer oc buf)

(* --- parsing ------------------------------------------------------------- *)

type error = Util.Parse_error.t = { file : string; line : int; msg : string }

(* Internal parse abort: line 0 means the failure is not tied to a
   specific line (wrong magic, empty file). *)
exception Err of int * string

let err line msg = raise (Err (line, msg))

let header_field line key =
  let marker = key ^ "=" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length line then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop =
      match String.index_from_opt line start ' ' with
      | Some j -> j
      | None -> String.length line
    in
    Some (String.sub line start (stop - start))

(* The largest node count a header may declare. The graph's adjacency
   array is allocated from the header alone, before any edge is read, so
   an absurd count must be refused here; no command can use more nodes
   anyway, since System.make builds an n x n latency matrix. *)
let max_nodes = 1 lsl 20

(* Scanner parse: lines and fields are (lo, hi) ranges of the input
   (Util.Scan), so a 500-node topology loads without materializing every
   line, field, and trimmed copy as separate strings. Validation order,
   accepted grammar, and every error message match the historical
   split_on_char parser exactly. *)
let parse_exn s =
  let len = String.length s in
  let hend = Util.Scan.line_end s 0 in
  if hend >= len then err 0 "empty file";
  let header = String.sub s 0 hend in
  if
    String.length header < String.length header_prefix
    || String.sub header 0 (String.length header_prefix) <> header_prefix
  then err 0 "not a replica-select topology file";
  let nodes =
    match header_field header "nodes" with
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 && n <= max_nodes -> n
      | Some _ | None -> err 1 "bad nodes")
    | None -> err 1 "missing nodes field"
  in
  let origin =
    match header_field header "origin" with
    | Some v -> (
      match int_of_string_opt v with
      | Some o -> Some o
      | None -> err 1 "bad origin")
    | None -> None
  in
  let g = Graph.create nodes in
  let cend = Util.Scan.line_end s (hend + 1) in
  let pos = ref (cend + 1) in
  let lineno = ref 3 in
  while !pos <= len do
    let lo = !pos in
    let hi = Util.Scan.line_end s lo in
    let lineno_here = !lineno in
    if not (Util.Scan.is_blank s ~lo ~hi) then begin
      let c1 = try String.index_from s lo ',' with Not_found -> len in
      let c2 = if c1 < hi then try String.index_from s (c1 + 1) ',' with Not_found -> len else len in
      let c3 = if c2 < hi then try String.index_from s (c2 + 1) ',' with Not_found -> len else len in
      if not (c1 < hi && c2 < hi && c3 >= hi) then
        err lineno_here "expected 3 comma-separated fields";
      let node_id ~lo ~hi =
        match Util.Scan.int_field s ~lo ~hi with
        | Some u -> u
        | None ->
          err lineno_here ("bad node id " ^ Util.Scan.sub_trimmed s ~lo ~hi)
      in
      let u = node_id ~lo ~hi:c1 in
      let v = node_id ~lo:(c1 + 1) ~hi:c2 in
      let w =
        match Util.Scan.float_field s ~lo:(c2 + 1) ~hi with
        | Some w -> w
        | None ->
          err lineno_here
            ("bad latency " ^ Util.Scan.sub_trimmed s ~lo:(c2 + 1) ~hi)
      in
      (* Reject poison at the boundary: a single NaN latency would
         silently corrupt every shortest-path and QoS computation
         downstream. *)
      if not (Float.is_finite w) then err lineno_here "non-finite latency";
      if w < 0. then err lineno_here "negative latency";
      (try Graph.add_edge g u v w with
      | Failure msg -> err lineno_here msg
      | Invalid_argument msg -> err lineno_here msg)
    end;
    incr lineno;
    pos := hi + 1
  done;
  (g, origin)

let parse ?(file = "<topology>") s =
  match parse_exn s with
  | v -> Ok v
  | exception Err (line, msg) -> Error { file; line; msg }

let load_result ~path =
  Result.bind (Util.Parse_error.read_file path) (parse ~file:path)

let load_system_result ~path =
  match load_result ~path with
  | Error e -> Error e
  | Ok (g, origin) -> (
    try Ok (System.make ?origin g)
    with Invalid_argument msg | Failure msg ->
      Error { file = path; line = 0; msg })
