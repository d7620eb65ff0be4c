type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0. }
  else begin
    let mean = ref 0. and m2 = ref 0. in
    let mn = ref xs.(0) and mx = ref xs.(0) in
    Array.iteri
      (fun i x ->
        let delta = x -. !mean in
        mean := !mean +. (delta /. float_of_int (i + 1));
        m2 := !m2 +. (delta *. (x -. !mean));
        if x < !mn then mn := x;
        if x > !mx then mx := x)
      xs;
    let variance = if n > 1 then !m2 /. float_of_int (n - 1) else 0. in
    { count = n; mean = !mean; stddev = sqrt variance; min = !mn; max = !mx }
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let fraction_within xs ~threshold =
  let n = Array.length xs in
  if n = 0 then 1.
  else begin
    let within = ref 0 in
    Array.iter (fun x -> if x <= threshold then incr within) xs;
    float_of_int !within /. float_of_int n
  end
