type mode = S | X

let mode_to_string = function S -> "S" | X -> "X"

type owner = int

(* Each fact is kept once.  A page entry is its holder list and its wait
   queue, both intrusive circular doubly-linked lists of nodes.  Who holds
   or waits on what is known only through the per-owner indexes, which map
   owner -> page -> that owner's node, so every membership probe, grant,
   release and cancellation is a hash probe plus O(1) pointer splices.

   List order is significant and mirrors the original assoc-list
   implementation exactly.  Holders are most-recently-granted first (cons
   order), which sets the order [holders] enumerates them in.  Waiters are
   strict FCFS with upgrades pushed to the front, which sets the order
   their [wake]s run in.  (The waits-for edges do not depend on either:
   [blockers] returns a sorted set.) *)

type node = {
  owner : owner;
  mutable mode : mode;
  mutable upgrade : bool;  (* a queued S -> X conversion *)
  wake : unit -> unit;  (* [ignore] on a holder *)
  mutable prev : node;
  mutable next : node;
}

(* A list is its first node.  The ring closes through [prev], so the head's
   [prev] is the last node and no tail is stored.  A node on no list links
   to [nil]. *)
type dlist = { mutable head : node option }

type entry = {
  holders : dlist;  (* all S, or one X, which is then the head *)
  queue : dlist;  (* FCFS; upgrades at the front; one node per owner *)
}

type t = {
  pages : (int, entry) Hashtbl.t;
  by_owner : (owner, (int, node) Hashtbl.t) Hashtbl.t;  (* holder nodes *)
  waits_by_owner : (owner, (int, node) Hashtbl.t) Hashtbl.t;  (* waiter nodes *)
  mutable n_held : int;
  mutable n_waiting : int;
}

let create () =
  {
    pages = Hashtbl.create 1024;
    by_owner = Hashtbl.create 64;
    waits_by_owner = Hashtbl.create 64;
    n_held = 0;
    n_waiting = 0;
  }

let entry t page =
  match Hashtbl.find_opt t.pages page with
  | Some e -> e
  | None ->
      let e = { holders = { head = None }; queue = { head = None } } in
      Hashtbl.replace t.pages page e;
      e

let drop_entry_if_empty t page e =
  match (e.holders.head, e.queue.head) with
  | None, None -> Hashtbl.remove t.pages page
  | _ -> ()

(* ---------------- intrusive list plumbing ---------------- *)

let rec nil =
  {
    owner = -1;
    mode = S;
    upgrade = false;
    wake = ignore;
    prev = nil;
    next = nil;
  }

(* Not [let rec n = { ...; prev = n }], which allocates through the
   runtime's C stubs on every call. *)
let node owner mode ~upgrade ~wake =
  { owner; mode; upgrade; wake; prev = nil; next = nil }

(* The last place of a ring is just before its head. *)
let push_back l n =
  match l.head with
  | None ->
      n.prev <- n;
      n.next <- n;
      l.head <- Some n
  | Some h ->
      n.prev <- h.prev;
      n.next <- h;
      h.prev.next <- n;
      h.prev <- n

let push_front l n =
  let was_empty = Option.is_none l.head in
  push_back l n;
  if not was_empty then l.head <- Some n

let unlink l n =
  if n.next == n then l.head <- None
  else begin
    n.prev.next <- n.next;
    n.next.prev <- n.prev;
    match l.head with Some h when h == n -> l.head <- Some n.next | _ -> ()
  end

(* Visit [l] from its head, stopping before [stop] if it is met. *)
let fold ?stop l f acc =
  match l.head with
  | None -> acc
  | Some h ->
      let rec go acc n =
        match stop with
        | Some s when s == n -> acc
        | _ ->
            let acc = f acc n in
            if n.next == h then acc else go acc n.next
      in
      go acc h

let pairs l = List.rev (fold l (fun acc n -> (n.owner, n.mode) :: acc) [])

(* ---------------- owner-side indexes ---------------- *)

let find idx owner page =
  match Hashtbl.find_opt idx owner with
  | None -> None
  | Some s -> Hashtbl.find_opt s page

let index idx ~size owner page n =
  let s =
    match Hashtbl.find_opt idx owner with
    | Some s -> s
    | None ->
        let s = Hashtbl.create size in
        Hashtbl.replace idx owner s;
        s
  in
  Hashtbl.replace s page n

let unindex idx owner page =
  match Hashtbl.find_opt idx owner with
  | None -> ()
  | Some s ->
      Hashtbl.remove s page;
      if Hashtbl.length s = 0 then Hashtbl.remove idx owner

let pages_of idx owner =
  match Hashtbl.find_opt idx owner with
  | None -> []
  | Some s -> Hashtbl.fold (fun p _ acc -> p :: acc) s []

(* O(1) compatibility: an X holder is always the sole holder, so S conflicts
   only with an X head held by someone else, and X needs the holder list to
   be empty or just [except]. *)
let compatible e mode ~except =
  match (e.holders.head, mode) with
  | None, _ -> true
  | Some h, S -> h.mode = S || h.owner = except
  | Some h, X -> h.owner = except && h.next == h

(* A holder gets a node of its own: a granted waiter's node keeps its
   [wake], and with it the waiting transaction, alive. *)
let add_holder t e page owner mode =
  let n = node owner mode ~upgrade:false ~wake:ignore in
  push_front e.holders n;
  index t.by_owner ~size:16 owner page n;
  t.n_held <- t.n_held + 1

let enqueue_waiter t e page ~front w =
  if front then push_front e.queue w else push_back e.queue w;
  index t.waits_by_owner ~size:8 w.owner page w;
  t.n_waiting <- t.n_waiting + 1

let remove_waiter t e page w =
  unlink e.queue w;
  unindex t.waits_by_owner w.owner page;
  t.n_waiting <- t.n_waiting - 1

(* Grant from the queue head while possible; strict FCFS otherwise.  An
   upgrade waiter's mode is X and its owner holds S, so it is compatible
   exactly when that S lock is the only lock left. *)
let rec grant_from_queue t page e =
  match e.queue.head with
  | Some w when compatible e w.mode ~except:w.owner ->
      remove_waiter t e page w;
      (match e.holders.head with
      | Some h when w.upgrade -> h.mode <- X
      | _ -> add_holder t e page w.owner w.mode);
      w.wake ();
      grant_from_queue t page e
  | Some _ | None -> ()

type outcome = Granted | Blocked of owner list

(* Everyone a request waits for: incompatible holders, plus earlier waiters
   whose requests are incompatible with ours (strict FCFS means we sit
   behind them).  Upgrades skip the queue, so only holders.  [stop] bounds
   the queue walk to waiters ahead of that node. *)
let blockers_for ?stop e ~owner ~mode ~upgrade =
  let conflict acc n =
    if n.owner = owner || (mode = S && n.mode = S) then acc else n.owner :: acc
  in
  let acc = fold e.holders conflict [] in
  let acc = if upgrade then acc else fold ?stop e.queue conflict acc in
  List.sort_uniq Int.compare acc

let request t ~page owner mode ~wake =
  match find t.waits_by_owner owner page with
  | Some w ->
      (* already queued on this page: report current blockers, don't enqueue
         twice (protocol clients block, but be robust anyway) *)
      Blocked
        (blockers_for (entry t page) ~owner ~mode:w.mode ~upgrade:w.upgrade)
  | None -> (
      match find t.by_owner owner page with
      | Some { mode = X; _ } -> Granted (* X covers S and X *)
      | Some _ when mode = S -> Granted
      | Some h when h.next == h ->
          (* upgrade S -> X as the sole holder *)
          h.mode <- X;
          Granted
      | Some _ ->
          let e = entry t page in
          let blockers = blockers_for e ~owner ~mode:X ~upgrade:true in
          enqueue_waiter t e page ~front:true
            (node owner X ~upgrade:true ~wake);
          Blocked blockers
      | None ->
          let e = entry t page in
          if Option.is_none e.queue.head && compatible e mode ~except:owner
          then begin
            add_holder t e page owner mode;
            Granted
          end
          else begin
            let blockers = blockers_for e ~owner ~mode ~upgrade:false in
            enqueue_waiter t e page ~front:false
              (node owner mode ~upgrade:false ~wake);
            Blocked blockers
          end)

let release t ~page owner =
  match find t.by_owner owner page with
  | None -> ()
  | Some h ->
      let e = Hashtbl.find t.pages page in
      unlink e.holders h;
      unindex t.by_owner owner page;
      t.n_held <- t.n_held - 1;
      (* a queued upgrade by this owner just lost its base lock: demote it
         to an ordinary X request or it can never be granted *)
      Option.iter
        (fun w -> w.upgrade <- false)
        (find t.waits_by_owner owner page);
      grant_from_queue t page e;
      drop_entry_if_empty t page e

let release_all t owner =
  let pages = pages_of t.by_owner owner in
  List.iter (fun p -> release t ~page:p owner) pages;
  pages

let cancel_wait t ~page owner =
  match find t.waits_by_owner owner page with
  | None -> ()
  | Some w ->
      let e = Hashtbl.find t.pages page in
      remove_waiter t e page w;
      grant_from_queue t page e;
      drop_entry_if_empty t page e

let cancel_all_waits t owner =
  List.iter
    (fun page -> cancel_wait t ~page owner)
    (List.sort Int.compare (pages_of t.waits_by_owner owner))

let downgrade t ~page owner =
  match find t.by_owner owner page with
  | Some h when h.mode = X ->
      h.mode <- S;
      grant_from_queue t page (Hashtbl.find t.pages page)
  | Some _ | None -> ()

let held t ~page owner =
  match find t.by_owner owner page with None -> None | Some h -> Some h.mode

let holders t ~page =
  match Hashtbl.find_opt t.pages page with
  | None -> []
  | Some e -> pairs e.holders

let waiting t ~page =
  match Hashtbl.find_opt t.pages page with
  | None -> []
  | Some e -> pairs e.queue

let pages_held_by t owner = pages_of t.by_owner owner
let holds_any t owner = Hashtbl.mem t.by_owner owner

let waiting_owners t =
  Hashtbl.fold (fun o _ acc -> o :: acc) t.waits_by_owner []

let waits_of t owner = pages_of t.waits_by_owner owner

let blockers t ~page owner =
  match find t.waits_by_owner owner page with
  | None -> []
  | Some w ->
      (* only waiters queued before us block us *)
      blockers_for ~stop:w (Hashtbl.find t.pages page) ~owner ~mode:w.mode
        ~upgrade:w.upgrade

let locks_held t = t.n_held
let waiting_count t = t.n_waiting

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith ("Lock_table: " ^^ fmt) in
  let indexed idx page what n =
    match find idx n.owner page with
    | Some n' when n' == n -> ()
    | _ ->
        fail "page %d owner %d: %s node is not the one its owner index holds"
          page n.owner what
  in
  let listed = ref 0 and queued = ref 0 in
  Hashtbl.iter
    (fun page e ->
      let held = fold e.holders (fun acc n -> n :: acc) [] in
      let queue = fold e.queue (fun acc n -> n :: acc) [] in
      listed := !listed + List.length held;
      queued := !queued + List.length queue;
      if List.length held > 1 && List.exists (fun n -> n.mode = X) held then
        fail "page %d has X alongside other locks" page;
      List.iter (indexed t.by_owner page "holder") held;
      List.iter
        (fun w ->
          if (not w.upgrade) && Option.is_some (find t.by_owner w.owner page)
          then fail "page %d owner %d both holds and waits" page w.owner;
          indexed t.waits_by_owner page "waiter" w)
        queue)
    t.pages;
  let size idx = Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s) idx 0 in
  if !listed <> t.n_held || size t.by_owner <> t.n_held then
    fail "n_held %d but %d holders listed and %d indexed" t.n_held !listed
      (size t.by_owner);
  if !queued <> t.n_waiting || size t.waits_by_owner <> t.n_waiting then
    fail "n_waiting %d but %d waiters listed and %d indexed" t.n_waiting
      !queued (size t.waits_by_owner)
