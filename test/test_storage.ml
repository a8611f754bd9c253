(* Tests for disks, the LRU pool, and the log manager (lib/storage). *)

open Storage

let case name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)
(* ------------------------------------------------------------------ *)

let fixed_seek = { Disk.seek_low = 0.035; seek_high = 0.035; transfer_time = 0.002 }

let test_disk_access_time () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"d0" fixed_seek in
  Sim.Engine.spawn eng (fun () -> Disk.access d ~seeks:1 ~pages:1);
  let t = Sim.Engine.run eng () in
  check_float "seek + transfer" 0.037 t;
  Alcotest.(check int) "accesses" 1 (Disk.accesses d);
  Alcotest.(check int) "pages" 1 (Disk.pages_transferred d)

let test_disk_sequential_no_seek () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" fixed_seek in
  Sim.Engine.spawn eng (fun () -> Disk.access d ~seeks:0 ~pages:4);
  let t = Sim.Engine.run eng () in
  check_float "transfers only" 0.008 t

let test_disk_fcfs () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"d" fixed_seek in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        Disk.access d ~seeks:1 ~pages:1;
        finish := i :: !finish)
  done;
  ignore (Sim.Engine.run eng ());
  Alcotest.(check (list int)) "fcfs" [ 1; 2; 3 ] (List.rev !finish)

let test_disk_seek_range () =
  let eng = Sim.Engine.create () in
  let prm = { Disk.seek_low = 0.0; seek_high = 0.044; transfer_time = 0.002 } in
  let d = Disk.create eng ~rng:(Sim.Rng.create 5) ~name:"d" prm in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        Disk.access d ~seeks:1 ~pages:1
      done);
  let t = Sim.Engine.run eng () in
  (* mean access = 22ms seek + 2ms transfer = 24 ms; 100 accesses ~ 2.4 s *)
  if t < 1.8 || t > 3.0 then Alcotest.failf "total time off: %g" t

(* ------------------------------------------------------------------ *)
(* Lru_pool                                                            *)
(* ------------------------------------------------------------------ *)

let test_lru_insert_and_hit () =
  let c = Lru_pool.create ~capacity:3 in
  Alcotest.(check (option reject)) "no victim"
    None
    (Lru_pool.insert c 1 ~dirty:false);
  Alcotest.(check bool) "mem" true (Lru_pool.mem c 1);
  Alcotest.(check bool) "touch hit" true (Lru_pool.touch c 1);
  Alcotest.(check bool) "touch miss" false (Lru_pool.touch c 99)

let test_lru_eviction_order () =
  let c = Lru_pool.create ~capacity:2 in
  ignore (Lru_pool.insert c 1 ~dirty:false);
  ignore (Lru_pool.insert c 2 ~dirty:false);
  (match Lru_pool.insert c 3 ~dirty:false with
  | Some v -> Alcotest.(check int) "evicts LRU (1)" 1 v.Lru_pool.page
  | None -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "2 resident" true (Lru_pool.mem c 2);
  Alcotest.(check bool) "3 resident" true (Lru_pool.mem c 3)

let test_lru_touch_protects () =
  let c = Lru_pool.create ~capacity:2 in
  ignore (Lru_pool.insert c 1 ~dirty:false);
  ignore (Lru_pool.insert c 2 ~dirty:false);
  ignore (Lru_pool.touch c 1);
  (match Lru_pool.insert c 3 ~dirty:false with
  | Some v -> Alcotest.(check int) "evicts 2, not touched 1" 2 v.Lru_pool.page
  | None -> Alcotest.fail "expected eviction")

let test_lru_dirty_eviction () =
  let c = Lru_pool.create ~capacity:1 in
  ignore (Lru_pool.insert c 1 ~dirty:true);
  match Lru_pool.insert c 2 ~dirty:false with
  | Some v ->
      Alcotest.(check int) "victim page" 1 v.Lru_pool.page;
      Alcotest.(check bool) "victim dirty" true v.Lru_pool.dirty
  | None -> Alcotest.fail "expected eviction"

(* A re-insert ORs its flag into the dirty bit: the victim reports it
   dirty whether the dirty insert came first or second. *)
let test_lru_dirty_bit_ors () =
  let evicted_dirty first second =
    let c = Lru_pool.create ~capacity:1 in
    ignore (Lru_pool.insert c 1 ~dirty:first);
    ignore (Lru_pool.insert c 1 ~dirty:second);
    match Lru_pool.insert c 2 ~dirty:false with
    | Some v ->
        Alcotest.(check int) "victim page" 1 v.Lru_pool.page;
        v.Lru_pool.dirty
    | None -> Alcotest.fail "expected eviction"
  in
  Alcotest.(check bool) "dirty after re-insert" true (evicted_dirty false true);
  Alcotest.(check bool) "stays dirty" true (evicted_dirty true false);
  Alcotest.(check bool) "stays clean" false (evicted_dirty false false)

let test_lru_pin_blocks_eviction () =
  let c = Lru_pool.create ~capacity:2 in
  ignore (Lru_pool.insert c 1 ~dirty:false);
  ignore (Lru_pool.insert c 2 ~dirty:false);
  Lru_pool.pin c 1;
  (match Lru_pool.insert c 3 ~dirty:false with
  | Some v -> Alcotest.(check int) "skips pinned LRU" 2 v.Lru_pool.page
  | None -> Alcotest.fail "expected eviction");
  Lru_pool.unpin c 1;
  Alcotest.(check int) "pin count zero" 0 (Lru_pool.pin_count c 1)

let test_lru_all_pinned_fails () =
  let c = Lru_pool.create ~capacity:1 in
  ignore (Lru_pool.insert c 1 ~dirty:false);
  Lru_pool.pin c 1;
  Alcotest.check_raises "over-pinned" (Failure "Lru_pool: all frames pinned")
    (fun () -> ignore (Lru_pool.insert c 2 ~dirty:false))

let test_lru_remove () =
  let c = Lru_pool.create ~capacity:2 in
  ignore (Lru_pool.insert c 1 ~dirty:true);
  Alcotest.(check bool) "remove returns dirty" true (Lru_pool.remove c 1);
  Alcotest.(check bool) "gone" false (Lru_pool.mem c 1);
  Alcotest.(check bool) "remove missing" false (Lru_pool.remove c 1)

let test_lru_mru_order () =
  let c = Lru_pool.create ~capacity:3 in
  ignore (Lru_pool.insert c 1 ~dirty:false);
  ignore (Lru_pool.insert c 2 ~dirty:false);
  ignore (Lru_pool.insert c 3 ~dirty:false);
  ignore (Lru_pool.touch c 1);
  Alcotest.(check (list int)) "mru order" [ 1; 3; 2 ] (Lru_pool.pages_mru c)

let test_lru_clear () =
  let c = Lru_pool.create ~capacity:3 in
  ignore (Lru_pool.insert c 1 ~dirty:true);
  ignore (Lru_pool.insert c 2 ~dirty:false);
  Lru_pool.clear c;
  Alcotest.(check int) "empty" 0 (Lru_pool.size c);
  Alcotest.(check (list int)) "no pages" [] (Lru_pool.pages_mru c)

let test_lru_unpin_all () =
  let c = Lru_pool.create ~capacity:2 in
  ignore (Lru_pool.insert c 1 ~dirty:false);
  Lru_pool.pin c 1;
  Lru_pool.pin c 1;
  Lru_pool.unpin_all c;
  Alcotest.(check int) "pins cleared" 0 (Lru_pool.pin_count c 1);
  (* a frame removed while pinned, then re-inserted, is a fresh frame:
     pin it again and [unpin_all] must still release it *)
  Lru_pool.pin c 1;
  ignore (Lru_pool.remove c 1);
  ignore (Lru_pool.insert c 1 ~dirty:false);
  Alcotest.(check int) "re-inserted frame unpinned" 0 (Lru_pool.pin_count c 1);
  Lru_pool.pin c 1;
  ignore (Lru_pool.insert c 2 ~dirty:false);
  Lru_pool.pin c 2;
  Lru_pool.unpin_all c;
  Alcotest.(check int) "re-inserted pin cleared" 0 (Lru_pool.pin_count c 1);
  Alcotest.(check int) "second frame cleared" 0 (Lru_pool.pin_count c 2);
  (* both frames evictable again: a full pool takes a new page *)
  (match Lru_pool.insert c 3 ~dirty:false with
  | Some v -> Alcotest.(check int) "LRU frame evicted" 1 v.Lru_pool.page
  | None -> Alcotest.fail "expected eviction");
  Alcotest.(check int) "pool full" 2 (Lru_pool.size c)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"size never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 1 200) (int_range 0 30)))
    (fun (cap, ops) ->
      let c = Lru_pool.create ~capacity:cap in
      List.iter (fun p -> ignore (Lru_pool.insert c p ~dirty:(p mod 2 = 0))) ops;
      Lru_pool.size c <= cap)

let prop_lru_most_recent_resident =
  QCheck.Test.make ~name:"most recent insert always resident" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 1 100) (int_range 0 30)))
    (fun (cap, ops) ->
      let c = Lru_pool.create ~capacity:cap in
      List.for_all
        (fun p ->
          ignore (Lru_pool.insert c p ~dirty:false);
          Lru_pool.mem c p)
        ops)

(* ------------------------------------------------------------------ *)
(* Log_manager                                                         *)
(* ------------------------------------------------------------------ *)

let test_log_pages_for () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" fixed_seek in
  let lm = Log_manager.create eng ~disk:d () in
  Alcotest.(check int) "0 updates -> 1 page" 1 (Log_manager.log_pages_for lm ~n_updates:0);
  Alcotest.(check int) "8 updates -> 1 page" 1 (Log_manager.log_pages_for lm ~n_updates:8);
  Alcotest.(check int) "9 updates -> 2 pages" 2 (Log_manager.log_pages_for lm ~n_updates:9)

let test_log_commit_timing () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" fixed_seek in
  let lm = Log_manager.create eng ~disk:d () in
  Sim.Engine.spawn eng (fun () -> Log_manager.force_commit lm ~n_updates:4);
  let t = Sim.Engine.run eng () in
  (* sequential: one log page transfer, no seek *)
  check_float "log force" 0.002 t;
  Alcotest.(check int) "commits" 1 (Log_manager.commits_logged lm)

let test_log_abort_counted () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" fixed_seek in
  let lm = Log_manager.create eng ~disk:d () in
  Sim.Engine.spawn eng (fun () -> Log_manager.force_abort lm ~xid:1);
  ignore (Sim.Engine.run eng ());
  Alcotest.(check int) "aborts" 1 (Log_manager.aborts_logged lm);
  Alcotest.(check int) "pages written" 1 (Log_manager.log_pages_written lm)


(* ------------------------------------------------------------------ *)
(* Log_manager: typed redo records, crash, replay                      *)
(* ------------------------------------------------------------------ *)

let make_log () =
  let eng = Sim.Engine.create () in
  let d = Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" fixed_seek in
  (eng, Log_manager.create eng ~disk:d ())

let run_log eng body =
  Sim.Engine.spawn eng body;
  ignore (Sim.Engine.run eng ())

(* Interleaved commits, an abort, a crash-lost tail, and a checkpoint:
   replay must reconstruct exactly the committed page-version map. *)
let test_log_replay_reconstructs () =
  let eng, lm = make_log () in
  run_log eng (fun () ->
      Log_manager.log_begin lm ~xid:1;
      Log_manager.append_commit lm ~xid:1 ~updates:[ (10, 1); (11, 1) ];
      Log_manager.force_commit lm ~n_updates:2;
      Log_manager.log_begin lm ~xid:2;
      Log_manager.force_abort lm ~xid:2;
      Log_manager.log_begin lm ~xid:3;
      Log_manager.append_commit lm ~xid:3 ~updates:[ (10, 2) ];
      Log_manager.force_commit lm ~n_updates:1;
      (* appended but never forced: lost at the crash below *)
      Log_manager.append_commit lm ~xid:4 ~updates:[ (12, 1) ]);
  Log_manager.crash lm;
  Alcotest.(check (list (pair int int)))
    "committed map: redo commits, drop abort, lose volatile tail"
    [ (10, 2); (11, 1) ]
    (Log_manager.committed_versions lm);
  let into = Hashtbl.create 8 in
  let stats = ref None in
  run_log eng (fun () -> stats := Some (Log_manager.replay lm ~into));
  let s = Option.get !stats in
  Alcotest.(check int) "xacts redone" 2 s.Log_manager.xacts_redone;
  Alcotest.(check bool) "abort discarded" true
    (s.Log_manager.xacts_discarded >= 1);
  Alcotest.(check (option int)) "page 10 at v2" (Some 2)
    (Hashtbl.find_opt into 10);
  Alcotest.(check (option int)) "lost tail not replayed" None
    (Hashtbl.find_opt into 12)

let test_log_durable_outcomes () =
  let eng, lm = make_log () in
  run_log eng (fun () ->
      Log_manager.append_commit lm ~xid:7 ~updates:[ (3, 1) ];
      Log_manager.force_commit lm ~n_updates:1;
      Log_manager.force_abort lm ~xid:8;
      Log_manager.append_commit lm ~xid:9 ~updates:[ (4, 1) ]);
  Log_manager.crash lm;
  Alcotest.(check (list (pair int bool)))
    "durable outcomes in log order, volatile x9 lost"
    [ (7, true); (8, false) ]
    (Log_manager.durable_outcomes lm);
  Alcotest.(check (option (list (pair int int))))
    "x7 rebuildable" (Some [ (3, 1) ])
    (Log_manager.durable_commit_updates lm ~xid:7);
  Alcotest.(check (option (list (pair int int))))
    "x9 not durable" None
    (Log_manager.durable_commit_updates lm ~xid:9);
  Alcotest.(check (list (pair int int)))
    "durable committed pairs" [ (3, 1) ]
    (Log_manager.durable_committed_pairs lm)

(* Regression: a commit appended (version already visible) but not yet
   forced when a checkpoint runs sits BEFORE the checkpoint record in the
   log.  The checkpoint's own force makes it durable, so its snapshot must
   include it — otherwise replay-from-checkpoint silently loses it. *)
let test_log_checkpoint_covers_buffered_tail () =
  let eng, lm = make_log () in
  run_log eng (fun () ->
      Log_manager.append_commit lm ~xid:1 ~updates:[ (5, 1) ];
      Log_manager.force_commit lm ~n_updates:1;
      Log_manager.append_commit lm ~xid:2 ~updates:[ (6, 1) ];
      ignore (Log_manager.checkpoint lm));
  Log_manager.crash lm;
  let into = Hashtbl.create 8 in
  run_log eng (fun () -> ignore (Log_manager.replay lm ~into));
  Alcotest.(check (option int))
    "buffered commit in checkpoint snapshot" (Some 1)
    (Hashtbl.find_opt into 6);
  Alcotest.(check (option int)) "forced commit kept" (Some 1)
    (Hashtbl.find_opt into 5)

(* The typed records ride on the cost model: a commit force charges the
   pages its [n_updates] says whether or not its records were appended
   first, and force_pending charges one page only when a tail is
   buffered. *)
let test_log_typed_costs_match_legacy () =
  let eng1, lm1 = make_log () in
  run_log eng1 (fun () ->
      Log_manager.append_commit lm1 ~xid:1
        ~updates:(List.init 9 (fun i -> (i, 1)));
      Log_manager.force_commit lm1 ~n_updates:9;
      Log_manager.force_abort lm1 ~xid:2);
  let eng2, lm2 = make_log () in
  run_log eng2 (fun () ->
      Log_manager.force_commit lm2 ~n_updates:9;
      Log_manager.force_abort lm2 ~xid:2);
  Alcotest.(check int) "typed force charges the legacy pages"
    (Log_manager.log_pages_written lm2)
    (Log_manager.log_pages_written lm1);
  let eng3, lm3 = make_log () in
  run_log eng3 (fun () ->
      Log_manager.force_pending lm3;
      Alcotest.(check int) "clean log: force_pending is free" 0
        (Log_manager.log_pages_written lm3);
      Log_manager.append_commit lm3 ~xid:1 ~updates:[ (1, 1) ];
      Log_manager.force_pending lm3;
      Alcotest.(check int) "buffered tail: one sequential page" 1
        (Log_manager.log_pages_written lm3);
      Alcotest.(check int) "tail now durable" (Log_manager.records_logged lm3)
        (Log_manager.durable_records lm3))

(* Model-based check: the pool must agree with a naive reference LRU on
   membership, eviction choice, dirty bits and versions under arbitrary
   operation sequences.  The version op reads a page's version before it
   sets a fresh one, so a page that was evicted, or removed and inserted
   again, is caught if it kept the version of its old frame.  With
   QCHECK_LONG set, it searches twenty times as many sequences. *)
let prop_lru_matches_reference_model =
  QCheck.Test.make ~name:"pool agrees with reference LRU model" ~count:300
    ~long_factor:20
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 1 120)
           (triple (int_range 0 14) (int_range 0 3) bool)))
    (fun (cap, ops) ->
      (* the shrinker can step below [int_range]'s lower bound *)
      let cap = max 1 cap in
      let pool = Lru_pool.create ~capacity:cap in
      (* reference: MRU-first list of (page, (dirty, version)) *)
      let model = ref [] in
      let model_touch p =
        match List.assoc_opt p !model with
        | None -> false
        | Some f ->
            model := (p, f) :: List.remove_assoc p !model;
            true
      in
      let model_insert p dirty =
        match List.assoc_opt p !model with
        | Some (d, v) ->
            model := (p, (d || dirty, v)) :: List.remove_assoc p !model;
            None
        | None ->
            let victim =
              if List.length !model >= cap then begin
                let rec last = function
                  | [ x ] -> x
                  | _ :: rest -> last rest
                  | [] -> assert false
                in
                let (vp, (vd, _)) = last !model in
                model := List.remove_assoc vp !model;
                Some (vp, vd)
              end
              else None
            in
            model := (p, (dirty, None)) :: !model;
            victim
      in
      let next_version = ref 0 in
      List.for_all
        (fun (page, op, dirty) ->
          match op with
          | 0 ->
              let expected = model_touch page in
              Lru_pool.touch pool page = expected
          | 1 ->
              let expected = model_insert page dirty in
              let got = Lru_pool.insert pool page ~dirty in
              (match (expected, got) with
              | None, None -> true
              | Some (vp, vd), Some v ->
                  v.Lru_pool.page = vp && v.Lru_pool.dirty = vd
              | _ -> false)
          | 2 ->
              let expected_dirty =
                match List.assoc_opt page !model with
                | Some (d, _) -> d
                | None -> false
              in
              model := List.remove_assoc page !model;
              Lru_pool.remove pool page = expected_dirty
          | _ ->
              let ok =
                Lru_pool.version pool page
                = Option.bind (List.assoc_opt page !model) snd
              in
              incr next_version;
              let v = !next_version in
              Lru_pool.set_version pool page v;
              model :=
                List.map
                  (fun (p, (d, old)) -> (p, (d, if p = page then Some v else old)))
                  !model;
              ok)
        ops
      && List.length !model = Lru_pool.size pool)

let suites =
  [
    ( "disk",
      [
        case "access time" test_disk_access_time;
        case "sequential no seek" test_disk_sequential_no_seek;
        case "fcfs" test_disk_fcfs;
        case "seek range statistics" test_disk_seek_range;
      ] );
    ( "lru_pool",
      [
        case "insert and hit" test_lru_insert_and_hit;
        case "eviction order" test_lru_eviction_order;
        case "touch protects" test_lru_touch_protects;
        case "dirty victim" test_lru_dirty_eviction;
        case "dirty bit ors" test_lru_dirty_bit_ors;
        case "pin blocks eviction" test_lru_pin_blocks_eviction;
        case "all pinned fails" test_lru_all_pinned_fails;
        case "remove" test_lru_remove;
        case "mru order" test_lru_mru_order;
        case "clear" test_lru_clear;
        case "unpin all" test_lru_unpin_all;
      ] );
    qsuite "lru-props"
      [
        prop_lru_never_exceeds_capacity;
        prop_lru_most_recent_resident;
        prop_lru_matches_reference_model;
      ];
    ( "log_manager",
      [
        case "log pages" test_log_pages_for;
        case "commit timing" test_log_commit_timing;
        case "abort counted" test_log_abort_counted;
        case "replay reconstructs" test_log_replay_reconstructs;
        case "durable outcomes" test_log_durable_outcomes;
        case "checkpoint covers buffered tail"
          test_log_checkpoint_covers_buffered_tail;
        case "typed costs match legacy" test_log_typed_costs_match_legacy;
      ] );
  ]

let () = Alcotest.run "storage" suites
