(* Kernel note: these run inside the PDHG iteration, which is the hot
   path of every bound computation. Lengths are validated once up front so
   the loops can use unsafe accesses; without flambda, cross-module calls
   are not inlined, which is why the fused variants below exist at all —
   each one replaces two or three separate passes (and their per-element
   call overhead) with a single stream over the data. *)

let dot x y =
  let n = Array.length x in
  if n <> Array.length y then invalid_arg "Vecops.dot: length mismatch";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc

let axpy a x y =
  let n = Array.length x in
  if n <> Array.length y then invalid_arg "Vecops.axpy: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set y i
      (Array.unsafe_get y i +. (a *. Array.unsafe_get x i))
  done

let axpby_into a x b y dst =
  let n = Array.length x in
  if n <> Array.length y || n <> Array.length dst then
    invalid_arg "Vecops.axpby_into: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set dst i
      ((a *. Array.unsafe_get x i) +. (b *. Array.unsafe_get y i))
  done

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. x

let clamp v ~lo ~hi = if v < lo then lo else if v > hi then hi else v

let approx_equal ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. (1. +. Float.max (Float.abs a) (Float.abs b))

let sum x =
  let acc = ref 0. and comp = ref 0. in
  for i = 0 to Array.length x - 1 do
    let y = Array.unsafe_get x i -. !comp in
    let t = !acc +. y in
    comp := t -. !acc -. y;
    acc := t
  done;
  !acc
