(* Intrusive doubly-linked list over array-free nodes; the hash table maps
   object id -> node. *)
type node = {
  key : int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable count : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru_cache.create: negative capacity";
  { cap = capacity; table = Hashtbl.create 64; head = None; tail = None; count = 0 }

let size t = t.count
let mem t k = Hashtbl.mem t.table k

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t k =
  match Hashtbl.find_opt t.table k with
  | None -> false
  | Some n ->
    unlink t n;
    push_front t n;
    true

let evict_lru t =
  match t.tail with
  | None -> None
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.count <- t.count - 1;
    Some n.key

let insert t k =
  if t.cap = 0 then Some k
  else if touch t k then None
  else begin
    let evicted = if t.count >= t.cap then evict_lru t else None in
    let n = { key = k; prev = None; next = None } in
    Hashtbl.add t.table k n;
    push_front t n;
    t.count <- t.count + 1;
    evicted
  end

let contents t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.key :: acc) n.next
  in
  walk [] t.head
