type attr = Str of string | Int of int | Float of float | Bool of bool
type kind = Span_begin | Span_end | Point

type event = {
  scope : string;
  seq : int;
  kind : kind;
  name : string;
  id : int;
  parent : int;
  wall_s : float;
  attrs : (string * attr) list;
}

type span = { sscope : string; sid : int }

(* Per-scope logical state.  Keyed by scope name so a scope can be
   left and re-entered (its counters resume), and so a task executed in
   a worker process starts from the same zeroed counters as it would in
   the parent. *)
type scope_state = {
  mutable seq : int;
  mutable next_id : int;
  mutable stack : int list;  (* innermost open span first *)
}

let scopes : (string, scope_state) Hashtbl.t = Hashtbl.create 16
let current_scope = ref "main"
let buffer : event list ref = ref []  (* newest first *)

(* Wall clock, forced monotonic: gettimeofday can step backwards under
   NTP; spans must not. Only read when wall-clock mode is on. *)
let last_wall = ref neg_infinity

let now () =
  if Config.wall_clock () then begin
    let t = Unix.gettimeofday () in
    let t = if t > !last_wall then t else !last_wall in
    last_wall := t;
    t
  end
  else nan

let state_of scope =
  match Hashtbl.find_opt scopes scope with
  | Some s -> s
  | None ->
    let s = { seq = 0; next_id = 1; stack = [] } in
    Hashtbl.add scopes scope s;
    s

let reset () =
  Hashtbl.reset scopes;
  current_scope := "main";
  buffer := [];
  last_wall := neg_infinity

let () = Config.on_install reset
let set_scope s = current_scope := s
let scope () = !current_scope

let emit scope st ~kind ~name ~id ~parent ~attrs =
  let seq = st.seq in
  st.seq <- seq + 1;
  buffer :=
    { scope; seq; kind; name; id; parent; wall_s = now (); attrs } :: !buffer

let no_span = { sscope = ""; sid = 0 }

let span_begin ?(attrs = []) name =
  if not (Config.tracing ()) then no_span
  else begin
    let st = state_of !current_scope in
    let id = st.next_id in
    st.next_id <- id + 1;
    let parent = match st.stack with [] -> 0 | p :: _ -> p in
    st.stack <- id :: st.stack;
    emit !current_scope st ~kind:Span_begin ~name ~id ~parent ~attrs;
    { sscope = !current_scope; sid = id }
  end

let span_end ?(attrs = []) sp =
  if sp.sid <> 0 && Config.tracing () then begin
    let st = state_of sp.sscope in
    if List.mem sp.sid st.stack then begin
      (* Implicitly close any children left open, so every emitted
         trace is well-bracketed by construction. *)
      let rec pop () =
        match st.stack with
        | [] -> ()
        | id :: rest ->
          st.stack <- rest;
          let parent = match rest with [] -> 0 | p :: _ -> p in
          if id = sp.sid then
            emit sp.sscope st ~kind:Span_end ~name:"" ~id ~parent ~attrs
          else begin
            emit sp.sscope st ~kind:Span_end ~name:"" ~id ~parent ~attrs:[];
            pop ()
          end
      in
      pop ()
    end
  end

let event ?(attrs = []) name =
  if Config.tracing () then begin
    let st = state_of !current_scope in
    let parent = match st.stack with [] -> 0 | p :: _ -> p in
    emit !current_scope st ~kind:Point ~name ~id:0 ~parent ~attrs
  end

let drain () =
  let evs = List.rev !buffer in
  buffer := [];
  evs

let absorb evs = buffer := List.rev_append evs !buffer

(* Deterministic merged order: "main" first, then tasks by index, then
   any other scope alphabetically.  Inside a scope the dense per-scope
   [seq] gives a total order, so the overall sort is total and
   independent of arrival order (hence of --jobs). *)
let scope_rank s =
  if s = "main" then (0, 0, 0, "")
  else
    let task_key () =
      if String.length s > 5 && String.sub s 0 5 = "task:" then begin
        let rest = String.sub s 5 (String.length s - 5) in
        (* "task:<phase>.<index>" from the worker pool, or a bare
           "task:<index>" from hand-set scopes. *)
        match String.index_opt rest '.' with
        | Some d -> (
          match
            ( int_of_string_opt (String.sub rest 0 d),
              int_of_string_opt
                (String.sub rest (d + 1) (String.length rest - d - 1)) )
          with
          | Some p, Some i -> Some (p, i)
          | _ -> None)
        | None -> (
          match int_of_string_opt rest with
          | Some i -> Some (0, i)
          | None -> None)
      end
      else None
    in
    match task_key () with
    | Some (p, i) -> (1, p, i, "")
    | None -> (2, 0, 0, s)

let events () =
  let evs = List.rev !buffer in
  List.stable_sort
    (fun a b ->
      let c = compare (scope_rank a.scope) (scope_rank b.scope) in
      if c <> 0 then c else compare a.seq b.seq)
    evs

(* --- JSONL rendering ----------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_json f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let attr_json = function
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_nan f then "\"nan\""
    else if f = infinity then "\"inf\""
    else if f = neg_infinity then "\"-inf\""
    else float_json f
  | Bool b -> if b then "true" else "false"

let kind_str = function
  | Span_begin -> "B"
  | Span_end -> "E"
  | Point -> "P"

let is_wall_attr (k, _) =
  String.length k >= 5 && String.sub k 0 5 = "wall_"

let event_to_json e =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"scope\":\"";
  Buffer.add_string b (json_escape e.scope);
  Buffer.add_string b "\",\"seq\":";
  Buffer.add_string b (string_of_int e.seq);
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b (kind_str e.kind);
  Buffer.add_string b "\"";
  if e.name <> "" then begin
    Buffer.add_string b ",\"name\":\"";
    Buffer.add_string b (json_escape e.name);
    Buffer.add_string b "\""
  end;
  if e.id <> 0 then begin
    Buffer.add_string b ",\"id\":";
    Buffer.add_string b (string_of_int e.id)
  end;
  Buffer.add_string b ",\"parent\":";
  Buffer.add_string b (string_of_int e.parent);
  let logical = Float.is_nan e.wall_s in
  if not logical then begin
    Buffer.add_string b ",\"wall_s\":";
    Buffer.add_string b (float_json e.wall_s)
  end;
  let attrs = if logical then List.filter (fun a -> not (is_wall_attr a)) e.attrs else e.attrs in
  if attrs <> [] then begin
    Buffer.add_string b ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "\"";
        Buffer.add_string b (json_escape k);
        Buffer.add_string b "\":";
        Buffer.add_string b (attr_json v))
      attrs;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b
