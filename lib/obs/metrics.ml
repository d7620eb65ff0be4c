type counter = { mutable c : int }

let n_buckets = 64

type histogram = {
  buckets : int array;  (* [n_buckets]; .(0) is the underflow bucket *)
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let reset () =
  (* Zero in place rather than dropping the tables: call sites cache
     instrument handles, and those must survive a Config.install. *)
  Hashtbl.iter (fun _ c -> c.c <- 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 n_buckets 0;
      h.count <- 0;
      h.sum <- 0.;
      h.minv <- nan;
      h.maxv <- nan)
    histograms

let () = Config.on_install reset

let find_or_add tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.add tbl name v;
    v

let counter name = find_or_add counters name (fun () -> { c = 0 })

let new_hist () =
  { buckets = Array.make n_buckets 0; count = 0; sum = 0.; minv = nan; maxv = nan }

let histogram name = find_or_add histograms name new_hist
let incr ?(by = 1) c = if Config.metering () then c.c <- c.c + by

(* Log-spaced bucket bounds: bound i = 1e-9 * 2^i, so buckets cover
   one nanosecond up to ~2^62 ns with one bucket per octave.  The last
   bucket absorbs overflow. *)
let bucket_bound i = 1e-9 *. Float.pow 2.0 (float_of_int i)

let bucket_index v =
  if not (v > 1e-9) then 0  (* also catches nan and non-positive *)
  else begin
    let i = ref 1 in
    let b = ref 2e-9 in
    while !i < n_buckets - 1 && v > !b do
      i := !i + 1;
      b := !b *. 2.0
    done;
    !i
  end

let observe h v =
  if Config.metering () then begin
    let i = bucket_index v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if Float.is_nan h.minv || v < h.minv then h.minv <- v;
    if Float.is_nan h.maxv || v > h.maxv then h.maxv <- v
  end

let counter_value c = c.c
let histogram_stats h = (h.count, h.sum, h.minv, h.maxv)

let histogram_buckets h =
  let out = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then out := (bucket_bound i, h.buckets.(i)) :: !out
  done;
  !out

(* --- worker -> parent merge ---------------------------------------- *)

type hist_data = {
  hd_buckets : int array;
  hd_count : int;
  hd_sum : float;
  hd_min : float;
  hd_max : float;
}

type delta = {
  d_counters : (string * int) list;
  d_histograms : (string * hist_data) list;
}

let drain () =
  let d_counters =
    Hashtbl.fold (fun k c acc -> if c.c <> 0 then (k, c.c) :: acc else acc) counters []
  and d_histograms =
    Hashtbl.fold
      (fun k h acc ->
        if h.count <> 0 then
          ( k,
            {
              hd_buckets = Array.copy h.buckets;
              hd_count = h.count;
              hd_sum = h.sum;
              hd_min = h.minv;
              hd_max = h.maxv;
            } )
          :: acc
        else acc)
      histograms []
  in
  reset ();
  { d_counters; d_histograms }

let absorb d =
  List.iter (fun (k, v) -> (counter k).c <- (counter k).c + v) d.d_counters;
  List.iter
    (fun (k, hd) ->
      let h = histogram k in
      for i = 0 to n_buckets - 1 do
        h.buckets.(i) <- h.buckets.(i) + hd.hd_buckets.(i)
      done;
      h.count <- h.count + hd.hd_count;
      h.sum <- h.sum +. hd.hd_sum;
      if Float.is_nan h.minv || hd.hd_min < h.minv then h.minv <- hd.hd_min;
      if Float.is_nan h.maxv || hd.hd_max > h.maxv then h.maxv <- hd.hd_max)
    d.d_histograms

(* --- JSON snapshot -------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_json f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  let first = ref true in
  List.iter
    (fun (k, c) ->
      if c.c <> 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b
          (Printf.sprintf "\n    \"%s\": %d" (json_escape k) c.c)
      end)
    (sorted_bindings counters);
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  first := true;
  List.iter
    (fun (k, h) ->
      if h.count <> 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b
          (Printf.sprintf
             "\n    \"%s\": {\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"buckets\": ["
             (json_escape k) h.count (float_json h.sum) (float_json h.minv)
             (float_json h.maxv));
        List.iteri
          (fun i (bound, n) ->
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_string b
              (Printf.sprintf "{\"le\": %s, \"n\": %d}" (float_json bound) n))
          (histogram_buckets h);
        Buffer.add_string b "]}"
      end)
    (sorted_bindings histograms);
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b
