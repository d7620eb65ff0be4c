let header_prefix = "# replica-select trace v1"

let to_buffer buf t =
  Buffer.add_string buf
    (Printf.sprintf "%s nodes=%d objects=%d duration_s=%.9g\n" header_prefix
       (Trace.node_count t) (Trace.object_count t) (Trace.duration_s t));
  Buffer.add_string buf "time_s,node,object,kind\n";
  (* Rows are appended piecewise — only the float goes through a format
     string (its "%.9g" rendering is pinned by the golden fixtures);
     [string_of_int] emits exactly what "%d" would. *)
  Trace.iter
    (fun ~time ~node ~object_id ~kind ->
      Buffer.add_string buf (Printf.sprintf "%.9g" time);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int node);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int object_id);
      Buffer.add_char buf ',';
      Buffer.add_char buf
        (match kind with Trace.Read -> 'r' | Trace.Write -> 'w');
      Buffer.add_char buf '\n')
    t

let to_string t =
  let buf = Buffer.create 4096 in
  to_buffer buf t;
  Buffer.contents buf

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      to_buffer buf t;
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
  | None -> err 1 ("missing header field " ^ key)
  | Some start ->
    let stop =
      match String.index_from_opt line start ' ' with
      | Some j -> j
      | None -> String.length line
    in
    String.sub line start (stop - start)

let parse_header header =
  let int_field key =
    match int_of_string_opt (header_field header key) with
    | Some n when n >= 0 -> n
    | Some _ | None -> err 1 ("bad header field " ^ key)
  in
  let nodes = int_field "nodes" in
  let objects = int_field "objects" in
  let duration_s =
    match float_of_string_opt (header_field header "duration_s") with
    | Some d when Float.is_finite d && d >= 0. -> d
    | Some _ | None -> err 1 "bad header field duration_s"
  in
  (nodes, objects, duration_s)

(* Scanner parse: lines and fields are (lo, hi) ranges of the input
   (Util.Scan), so a 100k-event trace loads without materializing every
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
  then err 0 "not a replica-select trace file";
  let nodes, objects, duration_s = parse_header header in
  let cend = Util.Scan.line_end s (hend + 1) in
  let events = ref [] in
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
      let c4 = if c3 < hi then try String.index_from s (c3 + 1) ',' with Not_found -> len else len in
      if not (c1 < hi && c2 < hi && c3 < hi && c4 >= hi) then
        err lineno_here "expected 4 comma-separated fields";
      let kind =
        let klo, khi = Util.Scan.trim_bounds s ~lo:(c3 + 1) ~hi in
        if khi - klo = 1 && s.[klo] = 'r' then Trace.Read
        else if khi - klo = 1 && s.[klo] = 'w' then Trace.Write
        else
          err lineno_here
            ("unknown kind " ^ Util.Scan.sub_trimmed s ~lo:(c3 + 1) ~hi)
      in
      let time =
        match Util.Scan.float_field s ~lo ~hi:c1 with
        | Some t -> t
        | None ->
          err lineno_here ("bad time " ^ Util.Scan.sub_trimmed s ~lo ~hi:c1)
      in
      (* Reject poison at the boundary: a NaN timestamp would corrupt
         interval bucketing silently. *)
      if not (Float.is_finite time) then err lineno_here "non-finite time";
      if time < 0. then err lineno_here "negative time";
      let int_field label ~lo ~hi =
        match Util.Scan.int_field s ~lo ~hi with
        | Some n -> n
        | None ->
          err lineno_here ("bad " ^ label ^ " " ^ Util.Scan.sub_trimmed s ~lo ~hi)
      in
      let node = int_field "node" ~lo:(c1 + 1) ~hi:c2 in
      if node < 0 || node >= nodes then
        err lineno_here (Printf.sprintf "node %d out of range" node);
      let obj = int_field "object" ~lo:(c2 + 1) ~hi:c3 in
      if obj < 0 || obj >= objects then
        err lineno_here (Printf.sprintf "object %d out of range" obj);
      events := (time, node, obj, kind) :: !events
    end;
    incr lineno;
    pos := hi + 1
  done;
  (try Trace.of_events ~nodes ~objects ~duration_s (List.rev !events) with
  | Invalid_argument msg -> err 0 msg
  | Failure msg -> err 0 msg)

let parse ?(file = "<trace>") s =
  match parse_exn s with
  | v -> Ok v
  | exception Err (line, msg) -> Error { file; line; msg }

let load_result ~path =
  Result.bind (Util.Parse_error.read_file path) (parse ~file:path)
