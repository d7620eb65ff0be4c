type kind = Lru | Fifo | Lfu

let kind_name = function Lru -> "lru" | Fifo -> "fifo" | Lfu -> "lfu"

(* FIFO and LFU share a simple table-based representation; the eviction
   scan is O(size), which is fine at cache-simulation scales (the LRU
   variant keeps its O(1) structure). *)
type entry = {
  mutable frequency : int;
  mutable sequence : int;  (* insertion order *)
}

type t =
  | Lru_impl of Lru_cache.t
  | Table of {
      kind : kind;
      cap : int;
      entries : (int, entry) Hashtbl.t;
      mutable next_sequence : int;
    }

let create kind ~capacity =
  if capacity < 0 then invalid_arg "Policy_cache.create: negative capacity";
  match kind with
  | Lru -> Lru_impl (Lru_cache.create ~capacity)
  | Fifo | Lfu ->
    Table { kind; cap = capacity; entries = Hashtbl.create 64; next_sequence = 0 }

let size = function
  | Lru_impl c -> Lru_cache.size c
  | Table t -> Hashtbl.length t.entries

let mem t k =
  match t with
  | Lru_impl c -> Lru_cache.mem c k
  | Table t -> Hashtbl.mem t.entries k

let touch t k =
  match t with
  | Lru_impl c -> Lru_cache.touch c k
  | Table t -> (
    match Hashtbl.find_opt t.entries k with
    | Some e ->
      e.frequency <- e.frequency + 1;
      true
    | None -> false)

let evict_candidate (t : (int, entry) Hashtbl.t) kind =
  (* FIFO: smallest sequence. LFU: smallest frequency, ties by smallest
     sequence. *)
  Hashtbl.fold
    (fun k e acc ->
      match acc with
      | None -> Some (k, e)
      | Some (_, best) ->
        let better =
          match kind with
          | Fifo -> e.sequence < best.sequence
          | Lfu ->
            e.frequency < best.frequency
            || (e.frequency = best.frequency && e.sequence < best.sequence)
          | Lru -> assert false
        in
        if better then Some (k, e) else acc)
    t None

let insert t k =
  match t with
  | Lru_impl c -> Lru_cache.insert c k
  | Table tb ->
    if tb.cap = 0 then Some k
    else if touch t k then None
    else begin
      let evicted =
        if Hashtbl.length tb.entries >= tb.cap then begin
          match evict_candidate tb.entries tb.kind with
          | Some (victim, _) ->
            Hashtbl.remove tb.entries victim;
            Some victim
          | None -> None
        end
        else None
      in
      Hashtbl.add tb.entries k { frequency = 1; sequence = tb.next_sequence };
      tb.next_sequence <- tb.next_sequence + 1;
      evicted
    end

let contents = function
  | Lru_impl c -> Lru_cache.contents c
  | Table t -> Hashtbl.fold (fun k _ acc -> k :: acc) t.entries []
