type t = {
  objects : int;
  count : int;
  representative : int array;
  bundle_of : int array;
  exact_member : bool array;
  rescaled : int;
}

(* The structural key of an object: its nonzero (node, store mask,
   create mask) column entries, flattened, and its read cells (the
   demand's own array, not a copy). [Permission.compute] leaves every
   mask zero outside the nodes that can serve one of the object's reads
   ([Permission.covering]), so the entries are gathered from those nodes
   alone, in an order fixed by the cells. Two objects with equal cells
   gather in the same order, so their keys are equal iff their mask
   columns and read cells are, counts compared by bit pattern (as their
   Marshal images would be). *)
type key = { cols : int array; cells : Workload.Demand.cell array }

let count_bits (c : Workload.Demand.cell) = Int64.bits_of_float c.count

module Key_table = Hashtbl.Make (struct
  type t = key

  let same_cell (x : Workload.Demand.cell) (y : Workload.Demand.cell) =
    x.node = y.node && x.interval = y.interval
    && Int64.equal (count_bits x) (count_bits y)

  let equal a b =
    Array.length a.cols = Array.length b.cols
    && Array.for_all2 Int.equal a.cols b.cols
    && Array.length a.cells = Array.length b.cells
    && Array.for_all2 same_cell a.cells b.cells

  (* FNV-style multiply with a shift that folds the high bits back down,
     so every word reaches the low bits the table indexes by. A count's
     sign bit is left out; [Demand] admits only positive counts. *)
  let mix h v =
    let h = (h lxor v) * 0x100000001b3 in
    h lxor (h lsr 29)

  let hash k =
    Array.fold_left
      (fun h (c : Workload.Demand.cell) ->
        mix (mix (mix h c.node) c.interval) (Int64.to_int (count_bits c)))
      (Array.fold_left mix 0 k.cols)
      k.cells
end)

let finish ~objects ~count ~representative ~bundle_of ~weight =
  let exact_member =
    Array.init objects (fun k ->
        weight.(k) = weight.(representative.(bundle_of.(k))))
  in
  let rescaled =
    Array.fold_left (fun acc e -> if e then acc else acc + 1) 0 exact_member
  in
  { objects; count; representative; bundle_of; exact_member; rescaled }

let compute (perm : Permission.t) =
  let spec = perm.Permission.spec in
  let nodes = Spec.node_count spec in
  let objects = Spec.object_count spec in
  let demand = spec.Spec.demand in
  let weight = demand.Workload.Demand.weight in
  let store = perm.Permission.store_mask
  and create = perm.Permission.create_mask in
  let covering = Permission.covering perm in
  (* Per-object scratch: the nodes gathered so far and the key entries. *)
  let seen = Array.make nodes false in
  let gathered = Array.make nodes 0 in
  let entries = Array.make (3 * nodes) 0 in
  let table = Key_table.create ((objects / 4) + 16) in
  let reps = ref [] in
  let count = ref 0 in
  let bundle_of = Array.make objects 0 in
  for k = 0 to objects - 1 do
    let cells = demand.Workload.Demand.reads.(k) in
    let ngathered = ref 0 in
    for ci = 0 to Array.length cells - 1 do
      let cov = covering.(cells.(ci).Workload.Demand.node) in
      for q = 0 to Array.length cov - 1 do
        let m = cov.(q) in
        if not seen.(m) then begin
          seen.(m) <- true;
          gathered.(!ngathered) <- m;
          incr ngathered
        end
      done
    done;
    let len = ref 0 in
    for g = 0 to !ngathered - 1 do
      let m = gathered.(g) in
      seen.(m) <- false;
      let s = store.(m).(k) and c = create.(m).(k) in
      if s <> 0 || c <> 0 then begin
        entries.(!len) <- m;
        entries.(!len + 1) <- s;
        entries.(!len + 2) <- c;
        len := !len + 3
      end
    done;
    let key = { cols = Array.sub entries 0 !len; cells } in
    match Key_table.find_opt table key with
    | Some b -> bundle_of.(k) <- b
    | None ->
      let b = !count in
      incr count;
      Key_table.add table key b;
      reps := k :: !reps;
      bundle_of.(k) <- b
  done;
  let representative = Array.of_list (List.rev !reps) in
  finish ~objects ~count:!count ~representative ~bundle_of ~weight

let trivial (perm : Permission.t) =
  let spec = perm.Permission.spec in
  let objects = Spec.object_count spec in
  let weight = spec.Spec.demand.Workload.Demand.weight in
  let identity = Array.init objects (fun k -> k) in
  finish ~objects ~count:objects ~representative:identity
    ~bundle_of:(Array.copy identity) ~weight

let ratio t = if t.count = 0 then 1. else float_of_int t.objects /. float_of_int t.count
