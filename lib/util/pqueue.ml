type 'a t = {
  mutable prio : float array;
  mutable data : 'a option array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0.; data = Array.make capacity None; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0. in
  let data = Array.make (2 * cap) None in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.data 0 data 0 h.size;
  h.prio <- prio;
  h.data <- data

let swap h i j =
  let p = h.prio.(i) in
  h.prio.(i) <- h.prio.(j);
  h.prio.(j) <- p;
  let d = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- d

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.prio.(l) < h.prio.(!smallest) then smallest := l;
  if r < h.size && h.prio.(r) < h.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h p v =
  if h.size = Array.length h.prio then grow h;
  h.prio.(h.size) <- p;
  h.data.(h.size) <- Some v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop_min h =
  if h.size = 0 then None
  else begin
    let p = h.prio.(0) in
    let v =
      match h.data.(0) with
      | Some v -> v
      | None -> assert false
    in
    h.size <- h.size - 1;
    h.prio.(0) <- h.prio.(h.size);
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    Some (p, v)
  end

let peek_min h =
  if h.size = 0 then None
  else
    match h.data.(0) with
    | Some v -> Some (h.prio.(0), v)
    | None -> assert false
