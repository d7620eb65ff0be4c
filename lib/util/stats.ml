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
