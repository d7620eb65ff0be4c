(* Worker payloads are Marshal-framed (events, metrics delta) pairs.
   Both sides of the pipe run the same binary, so Marshal is safe here
   (the pool already ships results the same way). *)

let payload () =
  let cfg = Config.current () in
  if not (cfg.trace || cfg.metrics) then ""
  else begin
    let evs = if cfg.trace then Trace.drain () else [] in
    let delta = if cfg.metrics then Some (Metrics.drain ()) else None in
    match (evs, delta) with
    | [], None -> ""
    | _ -> Marshal.to_string (evs, delta) []
  end

let absorb_payload s =
  if s <> "" then begin
    let (evs : Trace.event list), (delta : Metrics.delta option) =
      Marshal.from_string s 0
    in
    Trace.absorb evs;
    match delta with None -> () | Some d -> Metrics.absorb d
  end


let write_atomic path body =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let oc = open_out tmp in
  (try output_string oc body
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let trace_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Trace.event_to_json e);
      Buffer.add_char b '\n')
    (Trace.events ());
  Buffer.contents b

let flush () =
  let cfg = Config.current () in
  (match cfg.sink with
  | Config.Null -> if cfg.trace then ignore (Trace.drain ())
  | Config.Memory -> ()  (* keep buffered; events () reads them *)
  | Config.Jsonl_file path -> write_atomic path (trace_jsonl ()));
  match cfg.metrics_path with
  | Some path when cfg.metrics -> write_atomic path (Metrics.snapshot_json ())
  | _ -> ()
