let harmonic ~n ~s =
  if n < 1 then invalid_arg "Zipf.harmonic: n must be >= 1";
  let acc = ref 0. in
  for r = 1 to n do
    acc := !acc +. (float_of_int r ** -.s)
  done;
  !acc

let frequencies ~n ~s =
  let h = harmonic ~n ~s in
  Array.init n (fun i -> (float_of_int (i + 1) ** -.s) /. h)

type mandelbrot = { c1 : float; q : float; s : float }

let mandelbrot_count { c1; q; s } r =
  if r < 1 then invalid_arg "Zipf.mandelbrot_count: rank must be >= 1";
  c1 *. exp (s *. (log (1. +. q) -. log (float_of_int r +. q)))

(* With the max/min ratio pinned, q determines s:
     ((n + q) / (1 + q))^s = max/min
     => s = log ratio / log ((n + q) / (1 + q)).
   As q -> 0 the law approaches a pure power law (smallest total); as
   q -> infinity it approaches geometric decay between max and min (largest
   total). The total is monotone in q, so bisection finds the q whose total
   is closest to the request, clamped to the achievable interval. *)
let fit_mandelbrot ~n ~total ~max_count ~min_count =
  if n < 2 then invalid_arg "Zipf.fit_mandelbrot: n must be >= 2";
  if not (max_count > min_count && min_count > 0.) then
    invalid_arg "Zipf.fit_mandelbrot: requires max_count > min_count > 0";
  if total <= float_of_int n *. min_count || total >= float_of_int n *. max_count
  then invalid_arg "Zipf.fit_mandelbrot: total out of representable range";
  let ratio = max_count /. min_count in
  let params q =
    let s = log ratio /. log ((float_of_int n +. q) /. (1. +. q)) in
    { c1 = max_count; q; s }
  in
  let total_of q =
    let m = params q in
    let acc = ref 0. in
    for r = 1 to n do
      acc := !acc +. mandelbrot_count m r
    done;
    !acc
  in
  let q_min = 1e-9 and q_max = 1e12 in
  (* At n = 2 the two marginals fix the law for every q, so the total
     cannot move; bisecting would only drift q toward q_max, where
     [log (1 + q) - log (n + q)] cancels catastrophically. *)
  if n = 2 then params q_min
  else begin
    let t_min = total_of q_min and t_max = total_of q_max in
    if total <= t_min then params q_min
    else if total >= t_max then params q_max
    else begin
      let lo = ref q_min and hi = ref q_max in
      for _ = 1 to 200 do
        (* Bisect in log space: the interesting scale of q spans many
           orders of magnitude. *)
        let mid = exp (0.5 *. (log !lo +. log !hi)) in
        if total_of mid < total then lo := mid else hi := mid
      done;
      params !lo
    end
  end

let counts m ~n =
  let raw = Array.init n (fun i -> mandelbrot_count m (i + 1)) in
  let target = int_of_float (Float.round (Util.Vecops.sum raw)) in
  let floors = Array.map (fun x -> int_of_float (Float.floor x)) raw in
  let out = Array.map (fun f -> max f 1) floors in
  (* Hand the remaining budget to the ranks with the largest fractional
     parts, preserving the total and the monotone shape. *)
  let assigned = Array.fold_left ( + ) 0 out in
  let deficit = target - assigned in
  if deficit > 0 then begin
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun i j ->
        let fi = raw.(i) -. Float.of_int floors.(i)
        and fj = raw.(j) -. Float.of_int floors.(j) in
        compare fj fi)
      order;
    for idx = 0 to deficit - 1 do
      let i = order.(idx mod n) in
      out.(i) <- out.(i) + 1
    done
  end;
  out
