(* Doubly-linked LRU list threaded through a sentinel node, plus a hashtable
   from page id to node.  [sentinel.next] is the MRU end; [sentinel.prev] is
   the LRU end.  The hashtable is allocated on the first insert. *)

type node = {
  mutable page : int;
  mutable dirty : bool;
  mutable version : int; (* -1 until [set_version] *)
  mutable pins : int;
  mutable prev : node;
  mutable next : node;
}

type victim = { page : int; dirty : bool }

type t = {
  cap : int;
  table : (int, node) Sim.Lazy_tbl.t;
  sentinel : node;
  (* every frame whose pin count went from 0 to 1 since the last
     [unpin_all] or [clear], so [unpin_all] touches only those *)
  mutable pinned : node list;
  (* residency hooks: fired whenever a page enters or leaves the pool, so
     an external index (e.g. the server's page -> caching-clients map) can
     track membership without scanning pools *)
  mutable on_add : (int -> unit) option;
  mutable on_drop : (int -> unit) option;
}

let make_sentinel () =
  let rec s =
    { page = -1; dirty = false; version = -1; pins = 0; prev = s; next = s }
  in
  s

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru_pool.create: capacity <= 0";
  {
    cap = capacity;
    table = Sim.Lazy_tbl.create (2 * capacity);
    sentinel = make_sentinel ();
    pinned = [];
    on_add = None;
    on_drop = None;
  }

let set_residency_hook t ~on_add ~on_drop =
  t.on_add <- Some on_add;
  t.on_drop <- Some on_drop

let fire_add t page = match t.on_add with Some f -> f page | None -> ()
let fire_drop t page = match t.on_drop with Some f -> f page | None -> ()

let capacity t = t.cap
let size t = Sim.Lazy_tbl.length t.table
let mem t page = Sim.Lazy_tbl.mem t.table page

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let touch t page =
  match Sim.Lazy_tbl.find_opt t.table page with
  | None -> false
  | Some n ->
      unlink n;
      push_front t n;
      true

let evict_one t =
  (* walk from the LRU end, skipping pinned frames *)
  let rec find n =
    if n == t.sentinel then failwith "Lru_pool: all frames pinned"
    else if n.pins = 0 then n
    else find n.prev
  in
  let v = find t.sentinel.prev in
  unlink v;
  Sim.Lazy_tbl.remove t.table v.page;
  fire_drop t v.page;
  { page = v.page; dirty = v.dirty }

let insert t page ~dirty =
  match Sim.Lazy_tbl.find_opt t.table page with
  | Some n ->
      n.dirty <- n.dirty || dirty;
      unlink n;
      push_front t n;
      None
  | None ->
      let victim = if size t >= t.cap then Some (evict_one t) else None in
      let n =
        {
          page;
          dirty;
          version = -1;
          pins = 0;
          prev = t.sentinel;
          next = t.sentinel;
        }
      in
      push_front t n;
      Sim.Lazy_tbl.replace t.table page n;
      fire_add t page;
      victim

let is_dirty t page =
  match Sim.Lazy_tbl.find_opt t.table page with Some n -> n.dirty | None -> false

let set_dirty t page d =
  match Sim.Lazy_tbl.find_opt t.table page with
  | Some n -> n.dirty <- d
  | None -> ()

let version t page =
  match Sim.Lazy_tbl.find_opt t.table page with
  | Some n when n.version >= 0 -> Some n.version
  | Some _ | None -> None

let set_version t page v =
  match Sim.Lazy_tbl.find_opt t.table page with
  | Some n -> n.version <- v
  | None -> ()

let remove t page =
  match Sim.Lazy_tbl.find_opt t.table page with
  | None -> false
  | Some n ->
      unlink n;
      Sim.Lazy_tbl.remove t.table page;
      fire_drop t page;
      n.dirty

let pin t page =
  match Sim.Lazy_tbl.find_opt t.table page with
  | Some n ->
      if n.pins = 0 then t.pinned <- n :: t.pinned;
      n.pins <- n.pins + 1
  | None -> ()

let unpin t page =
  match Sim.Lazy_tbl.find_opt t.table page with
  | Some n ->
      if n.pins <= 0 then invalid_arg "Lru_pool.unpin: not pinned";
      n.pins <- n.pins - 1
  | None -> ()

let pin_count t page =
  match Sim.Lazy_tbl.find_opt t.table page with Some n -> n.pins | None -> 0

(* A listed frame may have been removed since it was pinned; zeroing its
   count then is harmless, since a re-inserted page gets a fresh frame. *)
let unpin_all t =
  List.iter (fun n -> n.pins <- 0) t.pinned;
  t.pinned <- []

let pages_mru t =
  let rec walk n acc =
    if n == t.sentinel then List.rev acc else walk n.next (n.page :: acc)
  in
  walk t.sentinel.next []

let clear t =
  (match t.on_drop with
  | None -> ()
  | Some f ->
      (* enumerate before the reset so the hook sees every dropped page *)
      let pages = Sim.Lazy_tbl.fold (fun p _ acc -> p :: acc) t.table [] in
      List.iter f pages);
  Sim.Lazy_tbl.reset t.table;
  t.pinned <- [];
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel
