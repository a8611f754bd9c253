type mode = S | X

let mode_to_string = function S -> "S" | X -> "X"

type owner = int

(* Holders and waiters live on intrusive doubly-linked lists, indexed per
   entry by owner in a hashtable, so that membership probes, grants,
   releases, and cancellations are O(1) pointer splices instead of list
   scans.  List order is semantically significant and mirrors the original
   assoc-list implementation exactly: holders are most-recently-granted
   first (cons order), waiters are strict FCFS with upgrades pushed to the
   front.  Wake order, holder enumeration order, and the waits-for edge
   order all depend on it. *)

type hnode = {
  h_owner : owner;
  mutable h_mode : mode;
  mutable h_prev : hnode option;
  mutable h_next : hnode option;
}

type wnode = {
  wn_owner : owner;
  wn_mode : mode;
  mutable wn_upgrade : bool;
  wn_wake : unit -> unit;
  mutable wn_prev : wnode option;
  mutable wn_next : wnode option;
}

type entry = {
  (* invariant: all holders S, or a single X (tracked in x_holder) *)
  mutable h_head : hnode option;
  mutable h_tail : hnode option;
  h_tbl : (owner, hnode) Hashtbl.t;
  mutable x_holder : owner option;
  (* FCFS; upgrades are inserted at the front; one waiter per owner *)
  mutable q_head : wnode option;
  mutable q_tail : wnode option;
  q_tbl : (owner, wnode) Hashtbl.t;
}

type t = {
  pages : (int, entry) Hashtbl.t;
  by_owner : (owner, (int, unit) Hashtbl.t) Hashtbl.t;
  waits_by_owner : (owner, (int, unit) Hashtbl.t) Hashtbl.t;
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
      let e =
        {
          h_head = None;
          h_tail = None;
          h_tbl = Hashtbl.create 8;
          x_holder = None;
          q_head = None;
          q_tail = None;
          q_tbl = Hashtbl.create 8;
        }
      in
      Hashtbl.replace t.pages page e;
      e

(* ---------------- intrusive list plumbing ---------------- *)

let h_push_front e n =
  n.h_prev <- None;
  n.h_next <- e.h_head;
  (match e.h_head with
  | Some f -> f.h_prev <- Some n
  | None -> e.h_tail <- Some n);
  e.h_head <- Some n

let h_unlink e n =
  (match n.h_prev with
  | Some p -> p.h_next <- n.h_next
  | None -> e.h_head <- n.h_next);
  (match n.h_next with
  | Some s -> s.h_prev <- n.h_prev
  | None -> e.h_tail <- n.h_prev);
  n.h_prev <- None;
  n.h_next <- None

let w_push_front e n =
  n.wn_prev <- None;
  n.wn_next <- e.q_head;
  (match e.q_head with
  | Some f -> f.wn_prev <- Some n
  | None -> e.q_tail <- Some n);
  e.q_head <- Some n

let w_push_back e n =
  n.wn_next <- None;
  n.wn_prev <- e.q_tail;
  (match e.q_tail with
  | Some l -> l.wn_next <- Some n
  | None -> e.q_head <- Some n);
  e.q_tail <- Some n

let w_unlink e n =
  (match n.wn_prev with
  | Some p -> p.wn_next <- n.wn_next
  | None -> e.q_head <- n.wn_next);
  (match n.wn_next with
  | Some s -> s.wn_prev <- n.wn_prev
  | None -> e.q_tail <- n.wn_prev);
  n.wn_prev <- None;
  n.wn_next <- None

let fold_holders e f acc =
  let rec go acc = function None -> acc | Some n -> go (f acc n) n.h_next in
  go acc e.h_head

let fold_waiters e f acc =
  let rec go acc = function None -> acc | Some n -> go (f acc n) n.wn_next in
  go acc e.q_head

(* ---------------- owner-side indexes ---------------- *)

let note_held t owner page =
  let set =
    match Hashtbl.find_opt t.by_owner owner with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 16 in
        Hashtbl.replace t.by_owner owner s;
        s
  in
  Hashtbl.replace set page ()

let note_released t owner page =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> ()
  | Some s ->
      Hashtbl.remove s page;
      if Hashtbl.length s = 0 then Hashtbl.remove t.by_owner owner

let note_waiting t owner page =
  let set =
    match Hashtbl.find_opt t.waits_by_owner owner with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace t.waits_by_owner owner s;
        s
  in
  Hashtbl.replace set page ()

let note_wait_done t owner page =
  match Hashtbl.find_opt t.waits_by_owner owner with
  | None -> ()
  | Some s ->
      Hashtbl.remove s page;
      if Hashtbl.length s = 0 then Hashtbl.remove t.waits_by_owner owner

let drop_entry_if_empty t page e =
  if Hashtbl.length e.h_tbl = 0 && Hashtbl.length e.q_tbl = 0 then
    Hashtbl.remove t.pages page

(* O(1) compatibility: an X holder is always sole, so S conflicts only with
   a foreign x_holder, and X needs the holder set to be empty or just us. *)
let compatible e mode ~except =
  match mode with
  | S -> ( match e.x_holder with None -> true | Some o -> o = except)
  | X ->
      let n = Hashtbl.length e.h_tbl in
      n = 0 || (n = 1 && Hashtbl.mem e.h_tbl except)

let add_holder t e page owner mode =
  let n = { h_owner = owner; h_mode = mode; h_prev = None; h_next = None } in
  h_push_front e n;
  Hashtbl.replace e.h_tbl owner n;
  if mode = X then e.x_holder <- Some owner;
  note_held t owner page;
  t.n_held <- t.n_held + 1

let enqueue_waiter t e page ~front w =
  if front then w_push_front e w else w_push_back e w;
  Hashtbl.replace e.q_tbl w.wn_owner w;
  note_waiting t w.wn_owner page;
  t.n_waiting <- t.n_waiting + 1

let remove_waiter t e page w =
  w_unlink e w;
  Hashtbl.remove e.q_tbl w.wn_owner;
  note_wait_done t w.wn_owner page;
  t.n_waiting <- t.n_waiting - 1

(* Grant from the queue head while possible.  An upgrade waiter is granted
   when its owner is the sole remaining holder; an S waiter when no X is
   held; an X waiter when nothing is held.  Strict FCFS otherwise. *)
let rec grant_from_queue t page e =
  match e.q_head with
  | None -> ()
  | Some w ->
      let can =
        if w.wn_upgrade then
          Hashtbl.length e.h_tbl = 1
          &&
          match Hashtbl.find_opt e.h_tbl w.wn_owner with
          | Some h -> h.h_mode = S
          | None -> false
        else compatible e w.wn_mode ~except:w.wn_owner
      in
      if can then begin
        remove_waiter t e page w;
        (if w.wn_upgrade then begin
           let h = Hashtbl.find e.h_tbl w.wn_owner in
           h.h_mode <- X;
           e.x_holder <- Some w.wn_owner
         end
         else add_holder t e page w.wn_owner w.wn_mode);
        w.wn_wake ();
        grant_from_queue t page e
      end

type outcome = Granted | Blocked of owner list

let blockers_for ?stop e ~owner ~mode ~upgrade =
  (* Everyone this request waits for: incompatible holders, plus earlier
     waiters whose requests are incompatible with ours (strict FCFS means
     we sit behind them).  Upgrades skip the queue, so only holders.
     [stop] bounds the queue walk to waiters ahead of that node. *)
  let holder_blockers =
    fold_holders e
      (fun acc h ->
        if h.h_owner = owner then acc
        else
          match (mode, h.h_mode) with
          | S, S -> acc (* S is only blocked by an X holder *)
          | S, X | X, S | X, X -> h.h_owner :: acc)
      []
  in
  let queue_blockers =
    if upgrade then []
    else
      let rec go acc = function
        | None -> acc
        | Some w when (match stop with Some s -> s == w | None -> false) ->
            acc
        | Some w ->
            let acc =
              if w.wn_owner = owner then acc
              else
                match (mode, w.wn_mode) with
                | S, S -> acc
                | S, X | X, S | X, X -> w.wn_owner :: acc
            in
            go acc w.wn_next
      in
      go [] e.q_head
  in
  List.sort_uniq Int.compare (holder_blockers @ queue_blockers)

let request t ~page owner mode ~wake =
  let e = entry t page in
  match Hashtbl.find_opt e.q_tbl owner with
  | Some w ->
      (* already queued on this page: report current blockers, don't enqueue
         twice (protocol clients block, but be robust anyway) *)
      Blocked (blockers_for e ~owner ~mode:w.wn_mode ~upgrade:w.wn_upgrade)
  | None -> (
      match Hashtbl.find_opt e.h_tbl owner with
      | Some { h_mode = X; _ } -> Granted (* X covers S and X *)
      | Some _ when mode = S -> Granted
      | Some h ->
          (* upgrade S -> X *)
          if Hashtbl.length e.h_tbl = 1 then begin
            h.h_mode <- X;
            e.x_holder <- Some owner;
            Granted
          end
          else begin
            let blockers = blockers_for e ~owner ~mode:X ~upgrade:true in
            enqueue_waiter t e page ~front:true
              {
                wn_owner = owner;
                wn_mode = X;
                wn_upgrade = true;
                wn_wake = wake;
                wn_prev = None;
                wn_next = None;
              };
            Blocked blockers
          end
      | None ->
          let free_now = e.q_head = None && compatible e mode ~except:owner in
          if free_now then begin
            add_holder t e page owner mode;
            Granted
          end
          else begin
            let blockers = blockers_for e ~owner ~mode ~upgrade:false in
            enqueue_waiter t e page ~front:false
              {
                wn_owner = owner;
                wn_mode = mode;
                wn_upgrade = false;
                wn_wake = wake;
                wn_prev = None;
                wn_next = None;
              };
            Blocked blockers
          end)

let release t ~page owner =
  match Hashtbl.find_opt t.pages page with
  | None -> ()
  | Some e -> (
      match Hashtbl.find_opt e.h_tbl owner with
      | None -> ()
      | Some h ->
          h_unlink e h;
          Hashtbl.remove e.h_tbl owner;
          if e.x_holder = Some owner then e.x_holder <- None;
          t.n_held <- t.n_held - 1;
          note_released t owner page;
          (* a queued upgrade by this owner just lost its base lock: demote
             it to an ordinary X request or it can never be granted *)
          (match Hashtbl.find_opt e.q_tbl owner with
          | Some w when w.wn_upgrade -> w.wn_upgrade <- false
          | _ -> ());
          grant_from_queue t page e;
          drop_entry_if_empty t page e)

let release_all t owner =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> []
  | Some s ->
      let pages = Hashtbl.fold (fun p () acc -> p :: acc) s [] in
      List.iter (fun p -> release t ~page:p owner) pages;
      pages

let cancel_wait t ~page owner =
  match Hashtbl.find_opt t.pages page with
  | None -> ()
  | Some e ->
      (match Hashtbl.find_opt e.q_tbl owner with
      | None -> ()
      | Some w -> remove_waiter t e page w);
      grant_from_queue t page e;
      drop_entry_if_empty t page e

let cancel_all_waits t owner =
  match Hashtbl.find_opt t.waits_by_owner owner with
  | None -> ()
  | Some s ->
      let pages =
        List.sort Int.compare (Hashtbl.fold (fun p () acc -> p :: acc) s [])
      in
      List.iter (fun page -> cancel_wait t ~page owner) pages

let downgrade t ~page owner =
  match Hashtbl.find_opt t.pages page with
  | None -> ()
  | Some e -> (
      match Hashtbl.find_opt e.h_tbl owner with
      | Some h when h.h_mode = X ->
          h.h_mode <- S;
          e.x_holder <- None;
          grant_from_queue t page e
      | Some _ | None -> ())

let held t ~page owner =
  match Hashtbl.find_opt t.pages page with
  | None -> None
  | Some e -> (
      match Hashtbl.find_opt e.h_tbl owner with
      | None -> None
      | Some h -> Some h.h_mode)

let holders t ~page =
  match Hashtbl.find_opt t.pages page with
  | None -> []
  | Some e ->
      List.rev (fold_holders e (fun acc h -> (h.h_owner, h.h_mode) :: acc) [])

let waiting t ~page =
  match Hashtbl.find_opt t.pages page with
  | None -> []
  | Some e ->
      List.rev (fold_waiters e (fun acc w -> (w.wn_owner, w.wn_mode) :: acc) [])

let pages_held_by t owner =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> []
  | Some s -> Hashtbl.fold (fun p () acc -> p :: acc) s []

let holds_any t owner = Hashtbl.mem t.by_owner owner

let waiting_owners t =
  Hashtbl.fold (fun o _ acc -> o :: acc) t.waits_by_owner []

let waits_of t owner =
  match Hashtbl.find_opt t.waits_by_owner owner with
  | None -> []
  | Some s -> Hashtbl.fold (fun p () acc -> p :: acc) s []

let blockers t ~page owner =
  match Hashtbl.find_opt t.pages page with
  | None -> []
  | Some e -> (
      match Hashtbl.find_opt e.q_tbl owner with
      | None -> []
      | Some w ->
          (* only waiters queued before us block us *)
          blockers_for ~stop:w e ~owner ~mode:w.wn_mode ~upgrade:w.wn_upgrade)

let locks_held t = t.n_held
let waiting_count t = t.n_waiting

let check_invariants t =
  let held_sum = ref 0 and wait_sum = ref 0 in
  Hashtbl.iter
    (fun page e ->
      let held =
        List.rev (fold_holders e (fun acc h -> (h.h_owner, h.h_mode) :: acc) [])
      in
      let queue = List.rev (fold_waiters e (fun acc w -> w :: acc) []) in
      held_sum := !held_sum + List.length held;
      wait_sum := !wait_sum + List.length queue;
      let xs = List.filter (fun (_, m) -> m = X) held in
      (match (xs, held) with
      | [], _ -> ()
      | [ _ ], [ _ ] -> ()
      | _ ->
          failwith
            (Printf.sprintf "Lock_table: page %d has X alongside other locks"
               page));
      (match (xs, e.x_holder) with
      | [], None -> ()
      | [ (o, _) ], Some o' when o = o' -> ()
      | _ ->
          failwith
            (Printf.sprintf "Lock_table: page %d x_holder out of sync" page));
      if Hashtbl.length e.h_tbl <> List.length held then
        failwith
          (Printf.sprintf "Lock_table: page %d holder index out of sync" page);
      if Hashtbl.length e.q_tbl <> List.length queue then
        failwith
          (Printf.sprintf "Lock_table: page %d waiter index out of sync" page);
      List.iter
        (fun w ->
          if (not w.wn_upgrade) && List.mem_assoc w.wn_owner held then
            failwith
              (Printf.sprintf
                 "Lock_table: page %d owner %d both holds and waits" page
                 w.wn_owner);
          match Hashtbl.find_opt t.waits_by_owner w.wn_owner with
          | Some s when Hashtbl.mem s page -> ()
          | _ ->
              failwith
                (Printf.sprintf
                   "Lock_table: page %d owner %d missing from wait index" page
                   w.wn_owner))
        queue;
      let owners = List.map fst held in
      if List.length owners <> List.length (List.sort_uniq Int.compare owners)
      then failwith (Printf.sprintf "Lock_table: page %d duplicate holder" page);
      List.iter
        (fun (o, _) ->
          match Hashtbl.find_opt t.by_owner o with
          | Some s when Hashtbl.mem s page -> ()
          | _ ->
              failwith
                (Printf.sprintf
                   "Lock_table: page %d owner %d missing from owner index" page
                   o))
        held)
    t.pages;
  if !held_sum <> t.n_held then
    failwith
      (Printf.sprintf "Lock_table: n_held %d but %d holders found" t.n_held
         !held_sum);
  if !wait_sum <> t.n_waiting then
    failwith
      (Printf.sprintf "Lock_table: n_waiting %d but %d waiters found"
         t.n_waiting !wait_sum)
