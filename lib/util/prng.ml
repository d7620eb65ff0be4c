type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let copy t = { state = t.state }

(* Top 53 bits give a uniform float in [0, 1). *)
let unit_float t =
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub (Int64.add bits (Int64.sub n64 1L)) v < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let float t x =
  if x <= 0. then invalid_arg "Prng.float: bound must be positive";
  unit_float t *. x

let uniform t ~lo ~hi =
  if lo >= hi then invalid_arg "Prng.uniform: requires lo < hi";
  lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick_weighted t ~weights =
  let total = Array.fold_left (fun acc w ->
      if w < 0. then invalid_arg "Prng.pick_weighted: negative weight";
      acc +. w)
      0. weights
  in
  if total <= 0. then invalid_arg "Prng.pick_weighted: all weights zero";
  let target = unit_float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
