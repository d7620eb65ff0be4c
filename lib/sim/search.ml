(* The search maintains "[hi] is known feasible" as its invariant, so it
   can stop refining at any moment and still return a valid (merely
   non-minimal) parameter. When the ambient task budget expires
   ({!Util.Parallel.task_expired}) it does exactly that — the bisection
   analogue of an anytime LP bound. Unbudgeted runs never read the clock
   and keep their deterministic narrowing sequence. *)

let min_feasible_int ~lo ~hi feasible =
  if lo > hi then invalid_arg "Search.min_feasible_int: lo > hi";
  if not (feasible hi) then None
  else if feasible lo then Some lo
  else begin
    (* Invariant: feasible hi, not (feasible lo). *)
    let lo = ref lo and hi = ref hi in
    while !hi - !lo > 1 && not (Util.Parallel.task_expired ()) do
      let mid = !lo + ((!hi - !lo) / 2) in
      if feasible mid then hi := mid else lo := mid
    done;
    Some !hi
  end
