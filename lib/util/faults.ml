type spec = {
  seed : int;
  crash_prob : float;
  crash_every : int;
  stall_prob : float;
  stall_s : float;
  diverge_prob : float;
  ckill_after : int;
}

let none =
  {
    seed = 0;
    crash_prob = 0.;
    crash_every = 0;
    stall_prob = 0.;
    stall_s = 0.5;
    diverge_prob = 0.;
    ckill_after = 0;
  }

let is_none s =
  s.crash_prob = 0. && s.crash_every = 0 && s.stall_prob = 0.
  && s.diverge_prob = 0. && s.ckill_after = 0

type error = Parse_error.t = { file : string; line : int; msg : string }

let default_file = "<faults>"

let parse_result ?(file = default_file) text =
  let fail fmt =
    Printf.ksprintf (fun msg -> Error { file; line = 0; msg }) fmt
  in
  let text = String.trim text in
  if text = "" then Ok none
  else
    let parse_field acc field =
      match acc with
      | Error _ as e -> e
      | Ok s -> (
          match String.index_opt field '=' with
          | None -> fail "missing '=' in %S" field
          | Some i ->
              let key = String.trim (String.sub field 0 i) in
              let v =
                String.trim
                  (String.sub field (i + 1) (String.length field - i - 1))
              in
              let prob set =
                match float_of_string_opt v with
                | Some p when p >= 0. && p <= 1. -> Ok (set p)
                | _ ->
                    fail "%s must be a probability in [0,1], got %S" key v
              in
              let nonneg_float set =
                match float_of_string_opt v with
                | Some x when x >= 0. && Float.is_finite x -> Ok (set x)
                | _ -> fail "%s must be a non-negative number, got %S" key v
              in
              let nonneg_int set =
                match int_of_string_opt v with
                | Some n when n >= 0 -> Ok (set n)
                | _ -> fail "%s must be a non-negative integer, got %S" key v
              in
              match key with
              | "seed" -> nonneg_int (fun n -> { s with seed = n })
              | "crash" -> prob (fun p -> { s with crash_prob = p })
              | "crash_every" -> nonneg_int (fun n -> { s with crash_every = n })
              | "stall" -> prob (fun p -> { s with stall_prob = p })
              | "stall_s" -> nonneg_float (fun x -> { s with stall_s = x })
              | "diverge" -> prob (fun p -> { s with diverge_prob = p })
              | "ckill_after" -> nonneg_int (fun n -> { s with ckill_after = n })
              | _ -> fail "unknown key %S" key)
    in
    List.fold_left parse_field (Ok none) (String.split_on_char ',' text)

let to_string s =
  if is_none s then ""
  else
    let fields = ref [] in
    let addf name v = if v <> 0. then fields := Printf.sprintf "%s=%g" name v :: !fields in
    let addi name v = if v <> 0 then fields := Printf.sprintf "%s=%d" name v :: !fields in
    addi "ckill_after" s.ckill_after;
    addf "diverge" s.diverge_prob;
    if s.stall_s <> none.stall_s then
      fields := Printf.sprintf "stall_s=%g" s.stall_s :: !fields;
    addf "stall" s.stall_prob;
    addi "crash_every" s.crash_every;
    addf "crash" s.crash_prob;
    addi "seed" s.seed;
    String.concat "," !fields

let state = ref none
let install s = state := s
let current () = !state
let active () = not (is_none !state)

(* FNV-1a over the (seed, kind, key) triple, masked to stay well inside
   OCaml's 63-bit native int on every platform. The hash seeds a private
   splitmix64 stream so the crash/stall/diverge decisions for one cell
   are independent coin flips yet identical in every process. *)
let mask = 0x3FFFFFFFFFFFFFFF

let hash ~seed ~kind key =
  let h = ref (0x811c9dc5 lxor (seed * 0x9E3779B1)) in
  let feed s =
    String.iter
      (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land mask)
      s
  in
  feed kind;
  feed "|";
  feed key;
  !h land mask

let decide spec ~kind ~key ~prob =
  if prob <= 0. then false
  else if prob >= 1. then true
  else
    let rng = Prng.create ~seed:(hash ~seed:spec.seed ~kind key) in
    Prng.float rng 1.0 < prob

let crash_requested ~key =
  let s = !state in
  decide s ~kind:"crash" ~key ~prob:s.crash_prob
  || (s.crash_every > 0 && hash ~seed:s.seed ~kind:"crash-every" key mod s.crash_every = 0)

let stall_requested ~key =
  let s = !state in
  decide s ~kind:"stall" ~key ~prob:s.stall_prob

let diverge_requested ~key =
  let s = !state in
  decide s ~kind:"diverge" ~key ~prob:s.diverge_prob

let crash_exit_code = 96

let first_attempt_in_worker () =
  Parallel.in_worker () && Parallel.task_attempt () = 0

let crash_point ~key =
  if first_attempt_in_worker () && crash_requested ~key then
    Unix._exit crash_exit_code

let stall_point ~key =
  if first_attempt_in_worker () && stall_requested ~key then
    Unix.sleepf (current ()).stall_s

(* Coordinator kill: exit the coordinator after its [ckill_after]-th
   checkpoint this run, as if the driving process had been SIGKILLed
   mid-sweep. The journal on disk is a complete prefix at that point, so
   a re-run with the same arguments (minus the kill) must resume and
   produce byte-identical output. Never fires inside a worker — the kill
   models the *coordinator* dying, worker deaths have their own knobs. *)
let coordinator_kill_point ~nth =
  let s = !state in
  if s.ckill_after > 0 && nth >= s.ckill_after && not (Parallel.in_worker ())
  then Unix._exit crash_exit_code
