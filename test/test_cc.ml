(* Tests for the lock manager, waits-for graph, and version table (lib/cc). *)

open Cc

let case name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)
let no_wake () = ()

let expect_granted msg = function
  | Lock_table.Granted -> ()
  | Lock_table.Blocked _ -> Alcotest.failf "%s: unexpectedly blocked" msg

let expect_blocked msg = function
  | Lock_table.Granted -> Alcotest.failf "%s: unexpectedly granted" msg
  | Lock_table.Blocked bs -> bs

(* ------------------------------------------------------------------ *)
(* Lock_table: grants and conflicts                                    *)
(* ------------------------------------------------------------------ *)

let test_s_locks_share () =
  let lt = Lock_table.create () in
  expect_granted "t1 S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "t2 S" (Lock_table.request lt ~page:1 2 S ~wake:no_wake);
  Alcotest.(check int) "two holders" 2 (List.length (Lock_table.holders lt ~page:1));
  Lock_table.check_invariants lt

let test_x_excludes () =
  let lt = Lock_table.create () in
  expect_granted "t1 X" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  let bs = expect_blocked "t2 S" (Lock_table.request lt ~page:1 2 S ~wake:no_wake) in
  Alcotest.(check (list int)) "blocked by t1" [ 1 ] bs;
  let bs = expect_blocked "t3 X" (Lock_table.request lt ~page:1 3 X ~wake:no_wake) in
  (* t3 waits for holder 1 and earlier waiter 2 *)
  Alcotest.(check (list int)) "blocked by both" [ 1; 2 ] bs;
  Lock_table.check_invariants lt

let test_reentrant_requests () =
  let lt = Lock_table.create () in
  expect_granted "S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "S again" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "upgrade" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  expect_granted "S while X" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "X again" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  Alcotest.(check (option bool)) "holds X"
    (Some true)
    (Option.map (fun m -> m = Lock_table.X) (Lock_table.held lt ~page:1 1))

let test_release_grants_next () =
  let lt = Lock_table.create () in
  let woken = ref [] in
  expect_granted "t1 X" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  ignore
    (expect_blocked "t2 S"
       (Lock_table.request lt ~page:1 2 S ~wake:(fun () -> woken := 2 :: !woken)));
  ignore
    (expect_blocked "t3 S"
       (Lock_table.request lt ~page:1 3 S ~wake:(fun () -> woken := 3 :: !woken)));
  Lock_table.release lt ~page:1 1;
  (* both S waiters granted together *)
  Alcotest.(check (list int)) "woken order" [ 2; 3 ] (List.rev !woken);
  Alcotest.(check int) "two S holders" 2 (List.length (Lock_table.holders lt ~page:1));
  Lock_table.check_invariants lt

let test_fcfs_no_reader_overtake () =
  (* S request behind a queued X request must wait (strict FCFS) *)
  let lt = Lock_table.create () in
  expect_granted "t1 S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  ignore (expect_blocked "t2 X" (Lock_table.request lt ~page:1 2 X ~wake:no_wake));
  let bs = expect_blocked "t3 S" (Lock_table.request lt ~page:1 3 S ~wake:no_wake) in
  Alcotest.(check (list int)) "t3 waits for t2" [ 2 ] bs;
  Lock_table.check_invariants lt

let test_upgrade_sole_holder_immediate () =
  let lt = Lock_table.create () in
  expect_granted "S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "upgrade" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  Alcotest.(check (option string)) "mode X" (Some "X")
    (Option.map Lock_table.mode_to_string (Lock_table.held lt ~page:1 1))

let test_upgrade_waits_for_other_readers () =
  let lt = Lock_table.create () in
  let woken = ref false in
  expect_granted "t1 S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "t2 S" (Lock_table.request lt ~page:1 2 S ~wake:no_wake);
  let bs =
    expect_blocked "t1 upgrade"
      (Lock_table.request lt ~page:1 1 X ~wake:(fun () -> woken := true))
  in
  Alcotest.(check (list int)) "waits for t2" [ 2 ] bs;
  Lock_table.release lt ~page:1 2;
  Alcotest.(check bool) "woken on release" true !woken;
  Alcotest.(check (option string)) "now X" (Some "X")
    (Option.map Lock_table.mode_to_string (Lock_table.held lt ~page:1 1));
  Lock_table.check_invariants lt

let test_upgrade_jumps_queue () =
  (* an upgrade is served before ordinary waiters *)
  let lt = Lock_table.create () in
  let order = ref [] in
  expect_granted "t1 S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "t2 S" (Lock_table.request lt ~page:1 2 S ~wake:no_wake);
  ignore
    (expect_blocked "t3 X"
       (Lock_table.request lt ~page:1 3 X ~wake:(fun () -> order := 3 :: !order)));
  ignore
    (expect_blocked "t1 upgrade"
       (Lock_table.request lt ~page:1 1 X ~wake:(fun () -> order := 1 :: !order)));
  Lock_table.release lt ~page:1 2;
  (* t1's upgrade granted first; t3 still waits for t1 *)
  Alcotest.(check (list int)) "upgrade first" [ 1 ] (List.rev !order);
  Lock_table.release lt ~page:1 1;
  Alcotest.(check (list int)) "then t3" [ 1; 3 ] (List.rev !order);
  Lock_table.check_invariants lt

let test_release_all () =
  let lt = Lock_table.create () in
  expect_granted "p1" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  expect_granted "p2" (Lock_table.request lt ~page:2 1 X ~wake:no_wake);
  expect_granted "p3" (Lock_table.request lt ~page:3 1 S ~wake:no_wake);
  let pages = List.sort Int.compare (Lock_table.release_all lt 1) in
  Alcotest.(check (list int)) "released" [ 1; 2; 3 ] pages;
  Alcotest.(check int) "no locks" 0 (Lock_table.locks_held lt);
  Alcotest.(check (list int)) "pages_held_by empty" [] (Lock_table.pages_held_by lt 1)

let test_cancel_wait_unblocks () =
  let lt = Lock_table.create () in
  let woken = ref false in
  expect_granted "t1 S" (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  ignore (expect_blocked "t2 X" (Lock_table.request lt ~page:1 2 X ~wake:no_wake));
  ignore
    (expect_blocked "t3 S"
       (Lock_table.request lt ~page:1 3 S ~wake:(fun () -> woken := true)));
  Lock_table.cancel_wait lt ~page:1 2;
  Alcotest.(check bool) "t3 granted after cancel" true !woken;
  Lock_table.check_invariants lt

let test_cancel_all_waits () =
  let lt = Lock_table.create () in
  expect_granted "t1 X p1" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  expect_granted "t1 X p2" (Lock_table.request lt ~page:2 1 X ~wake:no_wake);
  ignore (expect_blocked "t2 p1" (Lock_table.request lt ~page:1 2 S ~wake:no_wake));
  ignore (expect_blocked "t2 p2" (Lock_table.request lt ~page:2 2 S ~wake:no_wake));
  Lock_table.cancel_all_waits lt 2;
  Alcotest.(check (list (pair int string))) "no waiters p1" []
    (List.map (fun (o, m) -> (o, Lock_table.mode_to_string m)) (Lock_table.waiting lt ~page:1));
  Alcotest.(check (list (pair int string))) "no waiters p2" []
    (List.map (fun (o, m) -> (o, Lock_table.mode_to_string m)) (Lock_table.waiting lt ~page:2))

let test_downgrade () =
  let lt = Lock_table.create () in
  let woken = ref false in
  expect_granted "t1 X" (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  ignore
    (expect_blocked "t2 S"
       (Lock_table.request lt ~page:1 2 S ~wake:(fun () -> woken := true)));
  Lock_table.downgrade lt ~page:1 1;
  Alcotest.(check bool) "S waiter granted" true !woken;
  Alcotest.(check (option string)) "t1 now S" (Some "S")
    (Option.map Lock_table.mode_to_string (Lock_table.held lt ~page:1 1));
  Lock_table.check_invariants lt

let prop_lock_invariants_random_ops =
  QCheck.Test.make ~name:"random op sequences keep invariants" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 1 60)
        (triple (int_range 0 4) (int_range 0 3) bool))
    (fun ops ->
      let lt = Lock_table.create () in
      List.iter
        (fun (owner, page, exclusive) ->
          match (exclusive, Lock_table.held lt ~page owner) with
          | _, Some _ ->
              (* flip a coin between release and re-request via parity *)
              if (owner + page) mod 2 = 0 then Lock_table.release lt ~page owner
              else
                ignore
                  (Lock_table.request lt ~page owner
                     (if exclusive then X else S)
                     ~wake:no_wake)
          | true, None ->
              ignore (Lock_table.request lt ~page owner X ~wake:no_wake)
          | false, None ->
              ignore (Lock_table.request lt ~page owner S ~wake:no_wake))
        ops;
      Lock_table.check_invariants lt;
      true)

(* ------------------------------------------------------------------ *)
(* Waits_for                                                           *)
(* ------------------------------------------------------------------ *)

let test_no_cycle () =
  let g = Waits_for.create () in
  Waits_for.add_edge g 1 2;
  Waits_for.add_edge g 2 3;
  Alcotest.(check (option (list int))) "acyclic" None (Waits_for.find_cycle_from g 1)

let test_self_edge_ignored () =
  let g = Waits_for.create () in
  Waits_for.add_edge g 1 1;
  Alcotest.(check (list int)) "no succ" [] (Waits_for.succ g 1)

let test_two_cycle () =
  let g = Waits_for.create () in
  Waits_for.add_edge g 1 2;
  Waits_for.add_edge g 2 1;
  match Waits_for.find_cycle_from g 1 with
  | Some cycle ->
      Alcotest.(check (list int)) "cycle nodes" [ 1; 2 ] (List.sort Int.compare cycle)
  | None -> Alcotest.fail "cycle not found"

let test_long_cycle () =
  let g = Waits_for.create () in
  List.iter (fun (a, b) -> Waits_for.add_edge g a b)
    [ (1, 2); (2, 3); (3, 4); (4, 1); (2, 9); (9, 10) ];
  match Waits_for.find_cycle_from g 1 with
  | Some cycle ->
      Alcotest.(check (list int)) "cycle" [ 1; 2; 3; 4 ] (List.sort Int.compare cycle)
  | None -> Alcotest.fail "cycle not found"

let test_cycle_not_through_start () =
  (* a cycle elsewhere must not be reported for this start node *)
  let g = Waits_for.create () in
  List.iter (fun (a, b) -> Waits_for.add_edge g a b) [ (1, 2); (2, 3); (3, 2) ];
  Alcotest.(check (option (list int))) "not through 1" None
    (Waits_for.find_cycle_from g 1)

let test_lock_table_deadlock () =
  let lt = Lock_table.create () in
  ignore (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  ignore (Lock_table.request lt ~page:2 2 X ~wake:no_wake);
  ignore (Lock_table.request lt ~page:2 1 X ~wake:no_wake);
  ignore (Lock_table.request lt ~page:1 2 X ~wake:no_wake);
  let g = Waits_for.create () in
  Waits_for.add_lock_table g lt;
  (match Waits_for.find_cycle_from g 1 with
  | Some c -> Alcotest.(check (list int)) "deadlock" [ 1; 2 ] (List.sort Int.compare c)
  | None -> Alcotest.fail "deadlock not detected");
  match Waits_for.find_cycle_from g 2 with
  | Some _ -> ()
  | None -> Alcotest.fail "deadlock not detected from 2"

let test_upgrade_deadlock_detected () =
  (* two S holders both upgrading: the classic conversion deadlock *)
  let lt = Lock_table.create () in
  ignore (Lock_table.request lt ~page:1 1 S ~wake:no_wake);
  ignore (Lock_table.request lt ~page:1 2 S ~wake:no_wake);
  ignore (Lock_table.request lt ~page:1 1 X ~wake:no_wake);
  ignore (Lock_table.request lt ~page:1 2 X ~wake:no_wake);
  let g = Waits_for.create () in
  Waits_for.add_lock_table g lt;
  match Waits_for.find_cycle_from g 2 with
  | Some c -> Alcotest.(check (list int)) "conversion deadlock" [ 1; 2 ] (List.sort Int.compare c)
  | None -> Alcotest.fail "conversion deadlock missed"

let test_pick_victim_youngest () =
  let start_time = function 1 -> 10.0 | 2 -> 30.0 | 3 -> 20.0 | _ -> 0.0 in
  Alcotest.(check int) "youngest is 2" 2
    (Waits_for.pick_victim ~start_time [ 1; 2; 3 ]);
  Alcotest.(check int) "tie broken by id" 3
    (Waits_for.pick_victim ~start_time:(fun _ -> 1.0) [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Version_table                                                       *)
(* ------------------------------------------------------------------ *)

let test_versions_start_at_zero () =
  let vt = Version_table.create () in
  Alcotest.(check int) "initial" 0 (Version_table.current vt 5);
  Alcotest.(check bool) "current" true (Version_table.is_current vt ~page:5 ~version:0)

let test_bump_invalidates () =
  let vt = Version_table.create () in
  let v1 = Version_table.bump vt 5 in
  Alcotest.(check int) "v1" 1 v1;
  Alcotest.(check bool) "old copy stale" false
    (Version_table.is_current vt ~page:5 ~version:0);
  Alcotest.(check bool) "new copy valid" true
    (Version_table.is_current vt ~page:5 ~version:1);
  Alcotest.(check int) "pages updated" 1 (Version_table.pages_updated vt)

let prop_versions_monotonic =
  QCheck.Test.make ~name:"bump is strictly monotonic" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 10))
    (fun pages ->
      let vt = Version_table.create () in
      List.for_all
        (fun p ->
          let before = Version_table.current vt p in
          let after = Version_table.bump vt p in
          after = before + 1)
        pages)


(* ------------------------------------------------------------------ *)
(* History (serializability checker)                                   *)
(* ------------------------------------------------------------------ *)

let commit_rec xid reads writes = { History.xid; reads; writes }

let expect_serializable h =
  match History.check h with
  | History.Serializable -> ()
  | History.Cycle c ->
      Alcotest.failf "unexpected cycle: [%s]"
        (String.concat "," (List.map string_of_int c))

let expect_cycle h members =
  match History.check h with
  | History.Serializable -> Alcotest.fail "expected a cycle"
  | History.Cycle c ->
      Alcotest.(check (list int)) "cycle members" members
        (List.sort Int.compare c)

let test_history_empty () =
  let h = History.create () in
  expect_serializable h;
  Alcotest.(check int) "empty" 0 (History.size h)

let test_history_serial_chain () =
  (* T1 writes p@1; T2 reads p@1 and writes p@2; T3 reads p@2 *)
  let h = History.create () in
  History.add_commit h (commit_rec 1 [ (7, 0) ] [ (7, 1) ]);
  History.add_commit h (commit_rec 2 [ (7, 1) ] [ (7, 2) ]);
  History.add_commit h (commit_rec 3 [ (7, 2) ] []);
  expect_serializable h

let test_history_write_skew_cycle () =
  (* classic write skew: T1 reads q@0 writes p@1; T2 reads p@0 writes q@1.
     T1 -rw-> T2 (read q@0, T2 wrote q@1) and T2 -rw-> T1: cycle. *)
  let h = History.create () in
  History.add_commit h (commit_rec 1 [ (20, 0) ] [ (10, 1) ]);
  History.add_commit h (commit_rec 2 [ (10, 0) ] [ (20, 1) ]);
  expect_cycle h [ 1; 2 ]

let test_history_lost_update_cycle () =
  (* both read p@0, both write: versions 1 and 2; the reader of 0 that
     wrote 2 creates rw and ww edges forming a cycle with the other *)
  let h = History.create () in
  History.add_commit h (commit_rec 1 [ (5, 0) ] [ (5, 1) ]);
  History.add_commit h (commit_rec 2 [ (5, 0) ] [ (5, 2) ]);
  expect_cycle h [ 1; 2 ]

let test_history_duplicate_writer_rejected () =
  let h = History.create () in
  History.add_commit h (commit_rec 1 [] [ (5, 1) ]);
  Alcotest.check_raises "double install"
    (Invalid_argument
       "History.add_commit: page 5 version 1 written by both 1 and 2")
    (fun () -> History.add_commit h (commit_rec 2 [] [ (5, 1) ]))

let test_history_concurrent_disjoint () =
  let h = History.create () in
  History.add_commit h (commit_rec 1 [ (1, 0) ] [ (1, 1) ]);
  History.add_commit h (commit_rec 2 [ (2, 0) ] [ (2, 1) ]);
  History.add_commit h (commit_rec 3 [ (1, 1); (2, 1) ] []);
  expect_serializable h

let test_history_edges () =
  let h = History.create () in
  History.add_commit h (commit_rec 1 [] [ (5, 1) ]);
  History.add_commit h (commit_rec 2 [ (5, 1) ] [ (5, 2) ]);
  let es = History.edges h in
  Alcotest.(check bool) "wr edge present" true
    (List.exists (fun (a, b, r) -> a = 1 && b = 2 && r = "wr") es);
  Alcotest.(check bool) "ww edge present" true
    (List.exists (fun (a, b, r) -> a = 1 && b = 2 && r = "ww") es)

let prop_history_version_chains_serializable =
  QCheck.Test.make ~name:"sequential version chains are serializable"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 5))
    (fun pages ->
      (* transaction k reads the previous version of its page and installs
         the next: a serial history by construction *)
      let h = History.create () in
      let version = Hashtbl.create 8 in
      List.iteri
        (fun k page ->
          let v = Option.value (Hashtbl.find_opt version page) ~default:0 in
          Hashtbl.replace version page (v + 1);
          History.add_commit h (commit_rec (k + 1) [ (page, v) ] [ (page, v + 1) ]))
        pages;
      History.check h = History.Serializable)


let prop_lock_queue_drains =
  (* liveness: once every holder releases, every queued request must have
     been woken and granted — no waiter is stranded *)
  QCheck.Test.make ~name:"queue drains when holders release" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (triple (int_range 0 5) (int_range 0 3) bool))
    (fun ops ->
      let lt = Lock_table.create () in
      let woken = ref 0 and blocked = ref 0 in
      List.iter
        (fun (owner, page, exclusive) ->
          (* the table's contract: an owner never re-requests while it is
             already queued on the page (the simulator's per-transaction
             chain guarantees this) *)
          if not (List.mem_assoc owner (Lock_table.waiting lt ~page)) then
            match
              Lock_table.request lt ~page owner
                (if exclusive then X else S)
                ~wake:(fun () -> incr woken)
            with
            | Lock_table.Granted -> ()
            | Lock_table.Blocked _ -> incr blocked)
        ops;
      (* release every held lock until the table is empty *)
      let rec drain guard =
        if guard = 0 then false
        else if Lock_table.locks_held lt = 0 then true
        else begin
          for owner = 0 to 5 do
            ignore (Lock_table.release_all lt owner)
          done;
          drain (guard - 1)
        end
      in
      drain 100 && !woken = !blocked
      && List.for_all
           (fun page -> Lock_table.waiting lt ~page = [])
           [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Lock_table: differential check against the list-based original      *)
(* ------------------------------------------------------------------ *)

(* The original association-list implementation the map-indexed table
   replaced, kept verbatim as an executable reference model.  Every
   operation is O(holders + waiters) here, which is fine at test sizes
   and makes the semantics easy to audit by eye. *)
module Model = struct
  type mode = Lock_table.mode = S | X

  type owner = int

  type waiter = {
    w_owner : owner;
    w_mode : mode;
    w_upgrade : bool;
    w_wake : unit -> unit;
  }

  type entry = {
    mutable held : (owner * mode) list;
    mutable queue : waiter list; (* FCFS; upgrades inserted at the front *)
  }

  type t = {
    pages : (int, entry) Hashtbl.t;
    by_owner : (owner, (int, unit) Hashtbl.t) Hashtbl.t;
  }

  let create () = { pages = Hashtbl.create 64; by_owner = Hashtbl.create 16 }

  let entry t page =
    match Hashtbl.find_opt t.pages page with
    | Some e -> e
    | None ->
        let e = { held = []; queue = [] } in
        Hashtbl.replace t.pages page e;
        e

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

  let drop_entry_if_empty t page e =
    if e.held = [] && e.queue = [] then Hashtbl.remove t.pages page

  let compatible mode holders ~except =
    match mode with
    | S -> List.for_all (fun (o, m) -> o = except || m = S) holders
    | X -> List.for_all (fun (o, _) -> o = except) holders

  let rec grant_from_queue t page e =
    match e.queue with
    | [] -> ()
    | w :: rest ->
        let can =
          if w.w_upgrade then
            match e.held with
            | [ (o, S) ] when o = w.w_owner -> true
            | _ -> false
          else compatible w.w_mode e.held ~except:w.w_owner
        in
        if can then begin
          e.queue <- rest;
          (if w.w_upgrade then
             e.held <-
               List.map
                 (fun (o, m) -> if o = w.w_owner then (o, X) else (o, m))
                 e.held
           else begin
             e.held <- (w.w_owner, w.w_mode) :: e.held;
             note_held t w.w_owner page
           end);
          w.w_wake ();
          grant_from_queue t page e
        end

  type outcome = Granted | Blocked of owner list

  let blockers_for e ~owner ~mode ~upgrade =
    let holder_blockers =
      List.filter_map
        (fun (o, m) ->
          if o = owner then None
          else
            match (mode, m) with
            | S, S -> None
            | S, X | X, S | X, X -> Some o)
        e.held
    in
    let queue_blockers =
      if upgrade then []
      else
        List.filter_map
          (fun w ->
            if w.w_owner = owner then None
            else
              match (mode, w.w_mode) with
              | S, S -> None
              | S, X | X, S | X, X -> Some w.w_owner)
          e.queue
    in
    List.sort_uniq Int.compare (holder_blockers @ queue_blockers)

  let request t ~page owner mode ~wake =
    let e = entry t page in
    if List.exists (fun w -> w.w_owner = owner) e.queue then
      Blocked
        (match List.find_opt (fun w -> w.w_owner = owner) e.queue with
        | Some w -> blockers_for e ~owner ~mode:w.w_mode ~upgrade:w.w_upgrade
        | None -> [])
    else
      match List.assoc_opt owner e.held with
      | Some X -> Granted
      | Some S when mode = S -> Granted
      | Some S ->
          if List.length e.held = 1 then begin
            e.held <- [ (owner, X) ];
            Granted
          end
          else begin
            let blockers = blockers_for e ~owner ~mode:X ~upgrade:true in
            e.queue <-
              { w_owner = owner; w_mode = X; w_upgrade = true; w_wake = wake }
              :: e.queue;
            Blocked blockers
          end
      | None ->
          let free_now = e.queue = [] && compatible mode e.held ~except:owner in
          if free_now then begin
            e.held <- (owner, mode) :: e.held;
            note_held t owner page;
            Granted
          end
          else begin
            let blockers = blockers_for e ~owner ~mode ~upgrade:false in
            e.queue <-
              e.queue
              @ [
                  {
                    w_owner = owner;
                    w_mode = mode;
                    w_upgrade = false;
                    w_wake = wake;
                  };
                ];
            Blocked blockers
          end

  let release t ~page owner =
    match Hashtbl.find_opt t.pages page with
    | None -> ()
    | Some e ->
        if List.mem_assoc owner e.held then begin
          e.held <- List.remove_assoc owner e.held;
          note_released t owner page;
          e.queue <-
            List.map
              (fun w ->
                if w.w_owner = owner && w.w_upgrade then
                  { w with w_upgrade = false }
                else w)
              e.queue;
          grant_from_queue t page e;
          drop_entry_if_empty t page e
        end

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
        e.queue <- List.filter (fun w -> w.w_owner <> owner) e.queue;
        grant_from_queue t page e;
        drop_entry_if_empty t page e

  let cancel_all_waits t owner =
    let pages =
      Hashtbl.fold
        (fun page e acc ->
          if List.exists (fun w -> w.w_owner = owner) e.queue then page :: acc
          else acc)
        t.pages []
    in
    List.iter (fun page -> cancel_wait t ~page owner) pages

  let downgrade t ~page owner =
    match Hashtbl.find_opt t.pages page with
    | None -> ()
    | Some e -> (
        match List.assoc_opt owner e.held with
        | Some X ->
            e.held <-
              List.map
                (fun (o, m) -> if o = owner then (o, S) else (o, m))
                e.held;
            grant_from_queue t page e
        | Some S | None -> ())

  let held t ~page owner =
    match Hashtbl.find_opt t.pages page with
    | None -> None
    | Some e -> List.assoc_opt owner e.held

  let holders t ~page =
    match Hashtbl.find_opt t.pages page with None -> [] | Some e -> e.held

  let waiting t ~page =
    match Hashtbl.find_opt t.pages page with
    | None -> []
    | Some e -> List.map (fun w -> (w.w_owner, w.w_mode)) e.queue

  let pages_held_by t owner =
    match Hashtbl.find_opt t.by_owner owner with
    | None -> []
    | Some s -> Hashtbl.fold (fun p () acc -> p :: acc) s []

  let all_waiting t =
    Hashtbl.fold
      (fun page e acc ->
        List.fold_left
          (fun acc w -> (page, w.w_owner, w.w_mode) :: acc)
          acc e.queue)
      t.pages []

  let blockers t ~page owner =
    match Hashtbl.find_opt t.pages page with
    | None -> []
    | Some e -> (
        match List.find_opt (fun w -> w.w_owner = owner) e.queue with
        | None -> []
        | Some w ->
            let earlier =
              let rec take acc = function
                | [] -> List.rev acc
                | x :: _ when x.w_owner = owner && x.w_mode = w.w_mode ->
                    List.rev acc
                | x :: rest -> take (x :: acc) rest
              in
              take [] e.queue
            in
            blockers_for
              { e with queue = earlier }
              ~owner ~mode:w.w_mode ~upgrade:w.w_upgrade)

  let locks_held t =
    Hashtbl.fold (fun _ e acc -> acc + List.length e.held) t.pages 0

  let waiting_count t =
    Hashtbl.fold (fun _ e acc -> acc + List.length e.queue) t.pages 0
end

(* A random lock-table history: (op kind, owner, page) triples over six
   pages and five owners. *)
let lock_history =
  QCheck.(
    list_of_size Gen.(int_range 1 80)
      (triple (int_bound 9) (int_bound 4) (int_bound 5)))

let history_pages = [ 0; 1; 2; 3; 4; 5 ]
and history_owners = [ 0; 1; 2; 3; 4 ]

let sorted l = List.sort compare l

(* Apply one history step to both tables.  Returns whether the step's wake
   logs must match in order (the bulk operations visit pages in a
   different order in the two tables), and the first result on which the
   tables disagree, if any. *)
let apply_step lt m ~wake_lt ~wake_m (kind, owner, page) =
  let request mode =
    let o1 = Lock_table.request lt ~page owner mode ~wake:(wake_lt page owner) in
    let o2 = Model.request m ~page owner mode ~wake:(wake_m page owner) in
    match (o1, o2) with
    | Lock_table.Granted, Model.Granted -> (true, None)
    | Lock_table.Blocked a, Model.Blocked b when sorted a = sorted b ->
        (true, None)
    | _ -> (true, Some "request outcome")
  in
  match kind with
  | 0 | 1 -> request S
  | 2 | 3 | 4 -> request X
  | 5 ->
      Lock_table.release lt ~page owner;
      Model.release m ~page owner;
      (true, None)
  | 6 ->
      let p1 = Lock_table.release_all lt owner in
      let p2 = Model.release_all m owner in
      (false, if sorted p1 <> sorted p2 then Some "release_all pages" else None)
  | 7 ->
      Lock_table.cancel_wait lt ~page owner;
      Model.cancel_wait m ~page owner;
      (true, None)
  | 8 ->
      Lock_table.cancel_all_waits lt owner;
      Model.cancel_all_waits m owner;
      (false, None)
  | _ ->
      Lock_table.downgrade lt ~page owner;
      Model.downgrade m ~page owner;
      (true, None)

(* Drive both tables through the same random operation sequence and
   demand agreement after every step: request outcomes (blocker sets),
   wake callbacks, and every observable accessor.  The one sanctioned
   divergence is wake *order* under the bulk operations — the rewrite
   visits pages in ascending page order where the original used hash
   order — so those two ops compare wake logs as sets; everything else,
   including FCFS wake order within a page and the order of its holders,
   must match exactly.  With QCHECK_LONG set, both this property and the
   next search twenty times as many histories. *)
let prop_lock_matches_list_model =
  QCheck.Test.make ~name:"map table matches list-based reference model"
    ~count:500 ~long_factor:20 lock_history
    (fun ops ->
      let lt = Lock_table.create () in
      let m = Model.create () in
      let log_lt = ref [] and log_m = ref [] in
      let logger r page owner () = r := (page, owner) :: !r in
      let drain r =
        let l = List.rev !r in
        r := [];
        l
      in
      let fail i what =
        QCheck.Test.fail_reportf "op %d: %s diverges from the model" i what
      in
      let step i op =
        let ordered, diverged =
          apply_step lt m ~wake_lt:(logger log_lt) ~wake_m:(logger log_m) op
        in
        Option.iter (fail i) diverged;
        let w1 = drain log_lt and w2 = drain log_m in
        if if ordered then w1 <> w2 else sorted w1 <> sorted w2 then
          fail i "wake log";
        Lock_table.check_invariants lt;
        if Lock_table.locks_held lt <> Model.locks_held m then
          fail i "locks_held";
        if Lock_table.waiting_count lt <> Model.waiting_count m then
          fail i "waiting_count";
        let model_waits = Model.all_waiting m in
        if
          sorted (Lock_table.waiting_owners lt)
          <> List.sort_uniq compare (List.map (fun (_, o, _) -> o) model_waits)
        then fail i "waiting_owners";
        List.iter
          (fun p ->
            if Lock_table.holders lt ~page:p <> Model.holders m ~page:p then
              fail i "holders";
            if Lock_table.waiting lt ~page:p <> Model.waiting m ~page:p then
              fail i "wait queue";
            List.iter
              (fun o ->
                if Lock_table.held lt ~page:p o <> Model.held m ~page:p o then
                  fail i "held";
                if
                  sorted (Lock_table.blockers lt ~page:p o)
                  <> sorted (Model.blockers m ~page:p o)
                then fail i "blockers")
              history_owners)
          history_pages;
        List.iter
          (fun o ->
            if
              sorted (Lock_table.waits_of lt o)
              <> sorted
                   (List.filter_map
                      (fun (p, o', _) -> if o' = o then Some p else None)
                      model_waits)
            then fail i "waits_of";
            if
              sorted (Lock_table.pages_held_by lt o)
              <> sorted (Model.pages_held_by m o)
            then fail i "pages_held_by";
            if Lock_table.holds_any lt o <> (Model.pages_held_by m o <> [])
            then fail i "holds_any")
          history_owners
      in
      List.iteri step ops;
      true)

(* The detector's graph, built from the table's wait index, against a
   reference built by folding every queued request of the model, as the
   detector once did.  When each owner waits on at most one page (the
   simulator's case: a transaction has one queued request per shard),
   each owner's successors must match in order, since that order decides
   which cycle the search finds and so which victim dies.  Otherwise only
   the successor sets must match. *)
let prop_wait_index_graph_matches_fold =
  QCheck.Test.make ~name:"wait-index graph matches the all-waiting fold"
    ~count:500 ~long_factor:20 lock_history
    (fun ops ->
      let lt = Lock_table.create () in
      let m = Model.create () in
      let ignore_wake _ _ () = () in
      let step i op =
        ignore (apply_step lt m ~wake_lt:ignore_wake ~wake_m:ignore_wake op);
        let g = Waits_for.create () and reference = Waits_for.create () in
        Waits_for.add_lock_table g lt;
        let model_waits = Model.all_waiting m in
        List.iter
          (fun (page, owner, _) ->
            List.iter
              (Waits_for.add_edge reference owner)
              (Model.blockers m ~page owner))
          model_waits;
        let waits_of o =
          List.length (List.filter (fun (_, o', _) -> o' = o) model_waits)
        in
        let one_page_each =
          List.for_all (fun o -> waits_of o <= 1) history_owners
        in
        List.iter
          (fun o ->
            let got = Waits_for.succ g o and want = Waits_for.succ reference o in
            if if one_page_each then got <> want else sorted got <> sorted want
            then
              QCheck.Test.fail_reportf
                "op %d: owner %d waits for [%s], the fold says [%s]" i o
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int want)))
          history_owners
      in
      List.iteri step ops;
      true)

let suites =
  [
    ( "lock_table",
      [
        case "S locks share" test_s_locks_share;
        case "X excludes" test_x_excludes;
        case "re-entrant requests" test_reentrant_requests;
        case "release grants next" test_release_grants_next;
        case "strict FCFS" test_fcfs_no_reader_overtake;
        case "upgrade sole holder" test_upgrade_sole_holder_immediate;
        case "upgrade waits for readers" test_upgrade_waits_for_other_readers;
        case "upgrade jumps queue" test_upgrade_jumps_queue;
        case "release all" test_release_all;
        case "cancel wait unblocks" test_cancel_wait_unblocks;
        case "cancel all waits" test_cancel_all_waits;
        case "downgrade" test_downgrade;
      ] );
    qsuite "lock-props"
      [
        prop_lock_invariants_random_ops;
        prop_lock_queue_drains;
        prop_lock_matches_list_model;
        prop_wait_index_graph_matches_fold;
      ];
    ( "waits_for",
      [
        case "no cycle" test_no_cycle;
        case "self edge ignored" test_self_edge_ignored;
        case "two cycle" test_two_cycle;
        case "long cycle" test_long_cycle;
        case "cycle not through start" test_cycle_not_through_start;
        case "deadlock from lock table" test_lock_table_deadlock;
        case "conversion deadlock" test_upgrade_deadlock_detected;
        case "youngest victim" test_pick_victim_youngest;
      ] );
    ( "version_table",
      [
        case "start at zero" test_versions_start_at_zero;
        case "bump invalidates" test_bump_invalidates;
      ] );
    qsuite "version-props" [ prop_versions_monotonic ];
    ( "history",
      [
        case "empty" test_history_empty;
        case "serial chain" test_history_serial_chain;
        case "write skew cycle" test_history_write_skew_cycle;
        case "lost update cycle" test_history_lost_update_cycle;
        case "duplicate writer rejected" test_history_duplicate_writer_rejected;
        case "disjoint concurrent" test_history_concurrent_disjoint;
        case "edge kinds" test_history_edges;
      ] );
    qsuite "history-props" [ prop_history_version_chains_serializable ];
  ]

let () = Alcotest.run "cc" suites
