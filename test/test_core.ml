(* Tests for the core client/server simulator and the five consistency
   protocols (lib/core).

   Two levels:
   - server protocol tests drive Server.deliver directly with scripted
     messages and assert on replies, the lock table, and versions;
   - integration tests run complete simulations per algorithm and check
     metrics-level invariants. *)

let case name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Server harness                                                      *)
(* ------------------------------------------------------------------ *)

type harness = {
  eng : Sim.Engine.t;
  server : Core.Server.t;
  inboxes : (int * Core.Proto.s2c) Sim.Mailbox.t array;
  caches : Storage.Lru_pool.t array;
}

let test_cfg ?(n_clients = 3) ?(mpl = 50) ?(buffer_size = 50) () =
  let base = Core.Sys_params.table5 ~n_clients () in
  {
    base with
    Core.Sys_params.mpl;
    buffer_size;
    net = { base.Core.Sys_params.net with Net.Network.net_delay = 0.0 };
    disk = { Storage.Disk.seek_low = 0.001; seek_high = 0.001; transfer_time = 0.001 };
  }

let mk_harness ?(algo = Core.Proto.Two_phase Core.Proto.Inter) ?cfg ?fault () =
  let cfg = match cfg with Some c -> c | None -> test_cfg () in
  let eng = Sim.Engine.create () in
  let rng = Sim.Rng.create 5 in
  let db =
    Db.Database.create (Db.Db_params.uniform ~n_classes:4 ~pages_per_class:25 ())
  in
  let metrics = Core.Metrics.create eng in
  let net = Net.Network.create eng ~rng:(Sim.Rng.split rng "net") cfg.Core.Sys_params.net in
  let server =
    Core.Server.create ?fault eng ~cfg ~db ~algo
      ~rng:(Sim.Rng.split rng "srv") ~metrics
  in
  let n = cfg.Core.Sys_params.n_clients in
  let inboxes = Array.init n (fun _ -> Sim.Mailbox.create eng) in
  let caches =
    Array.init n (fun _ -> Storage.Lru_pool.create ~capacity:cfg.Core.Sys_params.cache_size)
  in
  let ports =
    Array.init n (fun i ->
        {
          Core.Proto.cpu = Sim.Facility.create eng ~name:(Printf.sprintf "c%d" i) ();
          mips = 1.0;
        })
  in
  let to_client cid ~parent ~xid ~retry msg =
    Core.Comms.post net cfg ~src:(Core.Server.port server)
      ~src_ep:(Obs.Causal.Shard 0) ~dst:ports.(cid) ~dst_ep:(Obs.Causal.Client cid)
      ~parent ~retry ~xid ~owner:(-1) ~kind:(Core.Proto.s2c_kind msg)
      ~bytes:
        (Core.Proto.s2c_bytes ~control:cfg.Core.Sys_params.control_msg_bytes
           ~page_size:cfg.Core.Sys_params.page_size msg)
      (fun node -> Sim.Mailbox.send inboxes.(cid) (node, msg))
  in
  Core.Server.connect server ~shard_id:0 ~peers:[||] ~to_client
    ~to_shard:(fun _ ~parent:_ ~retry:_ _ -> Alcotest.fail "no peer shards");
  if Core.Server.notifies server then
    Array.iteri
      (fun cid pool ->
        Storage.Lru_pool.set_residency_hook pool
          ~on_add:(fun page -> Core.Server.residency_add server cid page)
          ~on_drop:(fun page -> Core.Server.residency_drop server cid page))
      caches;
  { eng; server; inboxes; caches }

let run h = ignore (Sim.Engine.run h.eng ())

(* send a message and run the simulation until quiescent *)
let post h msg =
  Core.Server.deliver h.server ~ctx:(-1) msg;
  run h

let drain_inbox h i =
  let rec go acc =
    match Sim.Mailbox.recv_opt h.inboxes.(i) with
    | Some (_, m) -> go (m :: acc)
    | None -> List.rev acc
  in
  go []

let fp ?v page = { Core.Proto.page; cached_version = v }
let xid ~client ~seq = Core.Proto.make_xid ~client ~seq

let fetch ?(mode = Core.Proto.Read) ?(no_wait = false) ~client ~seq pages =
  Core.Proto.Fetch
    { client; xid = xid ~client ~seq; req = 0; mode; pages; no_wait }

let commit ?(read_set = []) ?(updates = []) ?(release = []) ~client ~seq () =
  Core.Proto.Commit
    {
      client;
      xid = xid ~client ~seq;
      req = 0;
      read_set;
      update_pages = updates;
      release_pages = release;
    }

(* ------------------------------------------------------------------ *)
(* Two-phase locking server protocol                                   *)
(* ------------------------------------------------------------------ *)

let test_fetch_miss_returns_data () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 7 ]);
  (match drain_inbox h 0 with
  | [ Core.Proto.Fetch_reply { data = [ (7, v) ]; _ } ] ->
      Alcotest.(check int) "initial version" 0 v
  | ms -> Alcotest.failf "unexpected replies (%d)" (List.length ms));
  Alcotest.(check (option string)) "S lock held" (Some "S")
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:7 0))

let test_fetch_valid_version_no_data () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp ~v:0 7 ]);
  match drain_inbox h 0 with
  | [ Core.Proto.Fetch_reply { data = []; _ } ] -> ()
  | _ -> Alcotest.fail "expected empty data for a current cached copy"

let test_fetch_stale_version_gets_data () =
  let h = mk_harness () in
  (* client 1 updates page 7 first *)
  post h (fetch ~client:1 ~seq:1 [ fp 7 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp ~v:0 7 ]);
  post h (commit ~client:1 ~seq:1 ~updates:[ 7 ] ());
  ignore (drain_inbox h 1);
  (* client 0 validates an old copy *)
  post h (fetch ~client:0 ~seq:1 [ fp ~v:0 7 ]);
  match drain_inbox h 0 with
  | [ Core.Proto.Fetch_reply { data = [ (7, 1) ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected fresh data at version 1"

let test_commit_bumps_versions_and_releases () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 3 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 3 ]);
  post h (commit ~client:0 ~seq:1 ~updates:[ 3 ] ());
  let msgs = drain_inbox h 0 in
  (match List.rev msgs with
  | Core.Proto.Commit_reply { ok = true; new_versions = [ (3, 1) ]; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected ok commit with version 1");
  Alcotest.(check int) "all locks released" 0
    (Cc.Lock_table.locks_held (Core.Server.locks h.server));
  Alcotest.(check int) "version bumped" 1
    (Cc.Version_table.current (Core.Server.versions h.server) 3)

let test_write_blocks_reader_until_commit () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 5 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 5 ]);
  ignore (drain_inbox h 0);
  (* reader blocks behind the X lock *)
  post h (fetch ~client:1 ~seq:1 [ fp 5 ]);
  Alcotest.(check (list reject)) "no reply while blocked" [] (drain_inbox h 1);
  post h (commit ~client:0 ~seq:1 ~updates:[ 5 ] ());
  ignore (drain_inbox h 0);
  match drain_inbox h 1 with
  | [ Core.Proto.Fetch_reply { data = [ (5, 1) ]; _ } ] -> ()
  | _ -> Alcotest.fail "reader should get fresh page after writer commits"

let test_deadlock_aborts_youngest () =
  let h = mk_harness () in
  (* t0 X-locks page 1; t1 X-locks page 2; then each requests the other *)
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp 1 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 2 ]);
  ignore (drain_inbox h 0);
  ignore (drain_inbox h 1);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp 2 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 1 ]);
  (* client 1's transaction is younger (it blocked second): it dies *)
  (match drain_inbox h 1 with
  | [ Core.Proto.Aborted _ ] -> ()
  | ms -> Alcotest.failf "expected abort for t1, got %d msgs" (List.length ms));
  match drain_inbox h 0 with
  | [ Core.Proto.Fetch_reply _ ] -> ()
  | _ -> Alcotest.fail "t0 should get page 2 after t1 dies"

let test_tombstoned_commit_gets_aborted_reply () =
  let h = mk_harness () in
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp 1 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 2 ]);
  ignore (drain_inbox h 0);
  ignore (drain_inbox h 1);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp 2 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 1 ]);
  ignore (drain_inbox h 0);
  ignore (drain_inbox h 1);
  (* the dead transaction tries to commit anyway *)
  post h (commit ~client:1 ~seq:1 ());
  match drain_inbox h 1 with
  | [ Core.Proto.Aborted _ ] -> ()
  | _ -> Alcotest.fail "tombstoned commit must answer Aborted"

let test_mpl_admission_queues () =
  let h = mk_harness ~cfg:(test_cfg ~mpl:1 ()) () in
  post h (fetch ~client:0 ~seq:1 [ fp 1 ]);
  ignore (drain_inbox h 0);
  Alcotest.(check int) "one active" 1 (Core.Server.active_count h.server);
  post h (fetch ~client:1 ~seq:1 [ fp 2 ]);
  (* client 1 waits in the ready queue, not for a lock *)
  Alcotest.(check (list reject)) "no reply while queued" [] (drain_inbox h 1);
  Alcotest.(check int) "ready queue length" 1
    (Core.Server.ready_queue_length h.server);
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  match drain_inbox h 1 with
  | [ Core.Proto.Fetch_reply _ ] -> ()
  | _ -> Alcotest.fail "queued transaction should be admitted after commit"

(* One client can have two live transactions on one server (a newer one
   opens before the older one's commit arrives, as in sharded no-wait
   runs).  Closing the older one must leave the newer one indexed, or a
   reboot notice cannot find it and it keeps its MPL slot forever. *)
let test_close_keeps_newer_xact_indexed () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 1 ]);
  post h (fetch ~client:0 ~seq:2 [ fp 2 ]);
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  Alcotest.(check int) "seq 2 still active" 1 (Core.Server.active_count h.server);
  post h (Core.Proto.Recovered { client = 0 });
  Alcotest.(check int) "reboot aborts seq 2" 0 (Core.Server.active_count h.server)

let test_read_only_commit_is_ok () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 1; fp 2 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ());
  match drain_inbox h 0 with
  | [ Core.Proto.Commit_reply { ok = true; new_versions = []; _ } ] -> ()
  | _ -> Alcotest.fail "read-only commit should succeed with no versions"

(* ------------------------------------------------------------------ *)
(* Certification server protocol                                       *)
(* ------------------------------------------------------------------ *)

let cert_read ~client ~seq pages =
  Core.Proto.Cert_read { client; xid = xid ~client ~seq; req = 0; pages }

let test_cert_read_never_blocks () =
  let h = mk_harness ~algo:(Core.Proto.Certification Core.Proto.Inter) () in
  post h (cert_read ~client:0 ~seq:1 [ fp 9 ]);
  (match drain_inbox h 0 with
  | [ Core.Proto.Cert_reply { data = [ (9, 0) ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected data");
  Alcotest.(check int) "no locks taken" 0
    (Cc.Lock_table.locks_held (Core.Server.locks h.server))

let test_cert_commit_validates () =
  let h = mk_harness ~algo:(Core.Proto.Certification Core.Proto.Inter) () in
  post h (cert_read ~client:0 ~seq:1 [ fp 9 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ~read_set:[ (9, 0) ] ~updates:[ 9 ] ());
  match drain_inbox h 0 with
  | [ Core.Proto.Commit_reply { ok = true; new_versions = [ (9, 1) ]; _ } ] -> ()
  | _ -> Alcotest.fail "certification should pass on current versions"

let test_cert_commit_fails_on_stale_read () =
  let h = mk_harness ~algo:(Core.Proto.Certification Core.Proto.Inter) () in
  post h (cert_read ~client:0 ~seq:1 [ fp 9 ]);
  post h (cert_read ~client:1 ~seq:1 [ fp 9 ]);
  ignore (drain_inbox h 0);
  ignore (drain_inbox h 1);
  (* client 1 commits an update to 9 first *)
  post h (commit ~client:1 ~seq:1 ~read_set:[ (9, 0) ] ~updates:[ 9 ] ());
  ignore (drain_inbox h 1);
  (* client 0's read of version 0 is now stale *)
  post h (commit ~client:0 ~seq:1 ~read_set:[ (9, 0) ] ~updates:[] ());
  match drain_inbox h 0 with
  | [ Core.Proto.Commit_reply { ok = false; stale_pages = [ 9 ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected certification failure listing page 9"

let test_cert_write_write_one_wins () =
  let h = mk_harness ~algo:(Core.Proto.Certification Core.Proto.Inter) () in
  post h (cert_read ~client:0 ~seq:1 [ fp 4 ]);
  post h (cert_read ~client:1 ~seq:1 [ fp 4 ]);
  ignore (drain_inbox h 0);
  ignore (drain_inbox h 1);
  post h (commit ~client:0 ~seq:1 ~read_set:[ (4, 0) ] ~updates:[ 4 ] ());
  post h (commit ~client:1 ~seq:1 ~read_set:[ (4, 0) ] ~updates:[ 4 ] ());
  let ok0 =
    match drain_inbox h 0 with
    | [ Core.Proto.Commit_reply { ok; _ } ] -> ok
    | _ -> Alcotest.fail "no reply 0"
  in
  let ok1 =
    match drain_inbox h 1 with
    | [ Core.Proto.Commit_reply { ok; _ } ] -> ok
    | _ -> Alcotest.fail "no reply 1"
  in
  Alcotest.(check bool) "exactly one certifies" true (ok0 <> ok1)

(* ------------------------------------------------------------------ *)
(* Callback locking server protocol                                    *)
(* ------------------------------------------------------------------ *)

let test_callback_request_sent_to_holder () =
  let h = mk_harness ~algo:Core.Proto.Callback () in
  (* client 0 takes a retained read lock and its transaction ends *)
  post h (fetch ~client:0 ~seq:1 [ fp 6 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  Alcotest.(check (option string)) "retained S survives commit" (Some "S")
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:6 0));
  (* client 1 wants to write page 6 *)
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 6 ]);
  (match drain_inbox h 0 with
  | [ Core.Proto.Callback_request { page = 6 } ] -> ()
  | _ -> Alcotest.fail "holder should receive a callback request");
  Alcotest.(check (list reject)) "writer still waits" [] (drain_inbox h 1);
  (* client 0 releases; the writer is granted *)
  post h (Core.Proto.Callback_reply { client = 0; page = 6 });
  match drain_inbox h 1 with
  | [ Core.Proto.Fetch_reply _ ] -> ()
  | _ -> Alcotest.fail "writer should proceed after callback reply"

let test_callback_commit_downgrades_x_to_retained_s () =
  let h = mk_harness ~algo:Core.Proto.Callback () in
  post h (fetch ~client:0 ~seq:1 [ fp 6 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 6 ]);
  post h (commit ~client:0 ~seq:1 ~updates:[ 6 ] ());
  ignore (drain_inbox h 0);
  Alcotest.(check (option string)) "X downgraded to retained S" (Some "S")
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:6 0))

let test_callback_commit_releases_requested_pages () =
  let h = mk_harness ~algo:Core.Proto.Callback () in
  post h (fetch ~client:0 ~seq:1 [ fp 6 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ~release:[ 6 ] ());
  ignore (drain_inbox h 0);
  Alcotest.(check (option string)) "released entirely" None
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:6 0))

let test_callback_retain_writes_keeps_x () =
  let cfg = { (test_cfg ()) with Core.Sys_params.callback_retain_writes = true } in
  let h = mk_harness ~algo:Core.Proto.Callback ~cfg () in
  post h (fetch ~client:0 ~seq:1 [ fp 6 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 6 ]);
  post h (commit ~client:0 ~seq:1 ~updates:[ 6 ] ());
  ignore (drain_inbox h 0);
  Alcotest.(check (option string)) "X retained across commit" (Some "X")
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:6 0));
  (* a reader elsewhere triggers a callback and gets the page on release *)
  post h (fetch ~client:1 ~seq:1 [ fp 6 ]);
  (match drain_inbox h 0 with
  | [ Core.Proto.Callback_request { page = 6 } ] -> ()
  | _ -> Alcotest.fail "retained X must be called back for a reader");
  post h (Core.Proto.Callback_reply { client = 0; page = 6 });
  match drain_inbox h 1 with
  | [ Core.Proto.Fetch_reply { data = [ (6, 1) ]; _ } ] -> ()
  | _ -> Alcotest.fail "reader proceeds after release"

let test_release_retained_message () =
  let h = mk_harness ~algo:Core.Proto.Callback () in
  post h (fetch ~client:0 ~seq:1 [ fp 6 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  post h (Core.Proto.Release_retained { client = 0; pages = [ 6 ] });
  Alcotest.(check int) "lock dropped" 0
    (Cc.Lock_table.locks_held (Core.Server.locks h.server))

let test_callback_abort_keeps_old_retained_locks () =
  let h = mk_harness ~algo:Core.Proto.Callback () in
  (* xact 1 of client 0 retains S on 6, commits *)
  post h (fetch ~client:0 ~seq:1 [ fp 6 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  (* xact 2 of client 0 acquires S on 7, then deadlocks with client 1 and
     is chosen as victim (younger) *)
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 8 ]);
  ignore (drain_inbox h 1);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:2 [ fp 7 ]);
  ignore (drain_inbox h 0);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 7 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:2 [ fp 8 ]);
  (* inbox 0 also holds the callback request for page 7; look for the abort *)
  let aborted =
    List.exists
      (function Core.Proto.Aborted _ -> true | _ -> false)
      (drain_inbox h 0)
  in
  if not aborted then Alcotest.fail "client 0's second xact should be the victim";
  Alcotest.(check (option string)) "old retained lock survives abort"
    (Some "S")
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:6 0));
  Alcotest.(check (option string)) "this xact's lock released" None
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:7 0))

(* A callback wait re-nags the holders every [callback_retry] seconds
   until it ends, and only it: once its lock is granted, a later wait of
   the same transaction on the same page (an upgrade) has re-nags of its
   own. *)
let test_callback_nag_stops_when_its_wait_ends () =
  (* an active plan turns the server's recovery paths on; the harness
     network injects nothing *)
  let fault = { Fault.Plan.none with delay_prob = 1e-9; callback_retry = 1.0 } in
  let h = mk_harness ~algo:Core.Proto.Callback ~fault () in
  let step msg =
    Core.Server.deliver h.server ~ctx:(-1) msg;
    ignore (Sim.Engine.run h.eng ~until:(Sim.Engine.now h.eng +. 0.2) ())
  in
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp 6 ]);
  (* client 0 waits for S behind client 1's X; client 1's commit keeps a
     retained S and grants it *)
  step (fetch ~client:0 ~seq:1 [ fp 6 ]);
  step (commit ~client:1 ~seq:1 ~updates:[ 6 ] ());
  (* the upgrade waits behind the retained S, which is never given back *)
  step (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:1 6 ]);
  ignore (Sim.Engine.run h.eng ~until:(Sim.Engine.now h.eng +. 3.0) ());
  Alcotest.(check (option string)) "S granted, upgrade waiting" (Some "S")
    (Option.map Cc.Lock_table.mode_to_string
       (Cc.Lock_table.held (Core.Server.locks h.server) ~page:6 0));
  let callbacks =
    List.length
      (List.filter
         (function Core.Proto.Callback_request { page = 6 } -> true | _ -> false)
         (drain_inbox h 1))
  in
  (* one request per wait, then the upgrade's three re-nags *)
  Alcotest.(check int) "callback requests to the holder" 5 callbacks

(* ------------------------------------------------------------------ *)
(* No-wait server protocol                                             *)
(* ------------------------------------------------------------------ *)

let test_no_wait_silent_on_success () =
  let h = mk_harness ~algo:(Core.Proto.No_wait { notify = None }) () in
  (* fetch the page synchronously first so a cached version exists *)
  post h (fetch ~client:0 ~seq:1 [ fp 2 ]);
  ignore (drain_inbox h 0);
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  (* next transaction validates optimistically: silence on success *)
  post h (fetch ~no_wait:true ~client:0 ~seq:2 [ fp ~v:0 2 ]);
  Alcotest.(check (list reject)) "no reply on valid no-wait" [] (drain_inbox h 0)

let test_no_wait_stale_aborts_with_page () =
  let h = mk_harness ~algo:(Core.Proto.No_wait { notify = None }) () in
  (* client 1 commits an update to page 2 *)
  post h (fetch ~client:1 ~seq:1 [ fp 2 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:1 ~seq:1 [ fp ~v:0 2 ]);
  post h (commit ~client:1 ~seq:1 ~updates:[ 2 ] ());
  ignore (drain_inbox h 1);
  (* client 0 optimistically uses its stale cached copy *)
  post h (fetch ~no_wait:true ~client:0 ~seq:1 [ fp ~v:0 2 ]);
  match drain_inbox h 0 with
  | [ Core.Proto.Aborted { stale_pages = [ 2 ]; _ } ] -> ()
  | _ -> Alcotest.fail "stale no-wait read must abort naming the page"

let test_notify_pushes_to_caching_clients () =
  let h = mk_harness ~algo:(Core.Proto.No_wait { notify = Some Core.Proto.Push }) () in
  (* clients 1 and 2 cache page 3 (directory view); client 2 does not *)
  ignore (Storage.Lru_pool.insert h.caches.(1) 3 ~dirty:false);
  post h (fetch ~client:0 ~seq:1 [ fp 3 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 3 ]);
  post h (commit ~client:0 ~seq:1 ~updates:[ 3 ] ());
  ignore (drain_inbox h 0);
  (match drain_inbox h 1 with
  | [ Core.Proto.Update_push { page = 3; version = 1 } ] -> ()
  | _ -> Alcotest.fail "caching client should receive the push");
  Alcotest.(check (list reject)) "non-caching client gets nothing" []
    (drain_inbox h 2)

let test_notify_invalidate_mode () =
  let h =
    mk_harness ~algo:(Core.Proto.No_wait { notify = Some Core.Proto.Invalidate }) ()
  in
  ignore (Storage.Lru_pool.insert h.caches.(1) 3 ~dirty:false);
  post h (fetch ~client:0 ~seq:1 [ fp 3 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 3 ]);
  post h (commit ~client:0 ~seq:1 ~updates:[ 3 ] ());
  ignore (drain_inbox h 0);
  match drain_inbox h 1 with
  | [ Core.Proto.Invalidate_page { page = 3 } ] -> ()
  | _ -> Alcotest.fail "expected invalidation"

(* ------------------------------------------------------------------ *)
(* Buffer-manager behaviour through the server                         *)
(* ------------------------------------------------------------------ *)

let test_buffer_caches_hot_page () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 11 ]);
  ignore (drain_inbox h 0);
  let reads_before = Array.fold_left (fun a d -> a + Storage.Disk.accesses d) 0
      (Core.Server.data_disks h.server) in
  post h (commit ~client:0 ~seq:1 ());
  ignore (drain_inbox h 0);
  (* second client reads the same page: buffer hit, no disk access *)
  post h (fetch ~client:1 ~seq:1 [ fp 11 ]);
  ignore (drain_inbox h 1);
  let reads_after = Array.fold_left (fun a d -> a + Storage.Disk.accesses d) 0
      (Core.Server.data_disks h.server) in
  Alcotest.(check int) "no extra disk read" reads_before reads_after;
  Alcotest.(check bool) "page resident" true
    (Storage.Lru_pool.mem (Core.Server.buffer h.server) 11)

(* Readers of a page whose disk read is in flight join that read; when it
   ends they go on in the order they joined, so their replies leave in
   arrival order. *)
let test_joined_reads_resume_in_order () =
  let slow_disk =
    { Storage.Disk.seek_low = 0.5; seek_high = 0.5; transfer_time = 0.001 }
  in
  let h = mk_harness ~cfg:{ (test_cfg ()) with Core.Sys_params.disk = slow_disk } () in
  let clients = [ 0; 1; 2 ] in
  List.iter
    (fun client ->
      Core.Server.deliver h.server ~ctx:(-1) (fetch ~client ~seq:1 [ fp 11 ]))
    clients;
  let replied = ref [] in
  List.iter
    (fun c ->
      Sim.Engine.spawn h.eng (fun () ->
          ignore (Sim.Mailbox.recv h.inboxes.(c));
          replied := c :: !replied))
    clients;
  run h;
  Alcotest.(check int) "one disk read" 1
    (Array.fold_left (fun a d -> a + Storage.Disk.accesses d) 0
       (Core.Server.data_disks h.server));
  Alcotest.(check (list int)) "replies in arrival order" clients (List.rev !replied)

let test_commit_forces_log () =
  let h = mk_harness () in
  post h (fetch ~client:0 ~seq:1 [ fp 11 ]);
  post h (fetch ~mode:Core.Proto.Write ~client:0 ~seq:1 [ fp ~v:0 11 ]);
  post h (commit ~client:0 ~seq:1 ~updates:[ 11 ] ());
  ignore (drain_inbox h 0);
  match Core.Server.log_disk h.server with
  | Some d -> Alcotest.(check bool) "log write happened" true (Storage.Disk.accesses d > 0)
  | None -> Alcotest.fail "table5 config has a log disk"

(* ------------------------------------------------------------------ *)
(* Integration: full simulations                                       *)
(* ------------------------------------------------------------------ *)

let quick_spec ?(n_clients = 8) ?(pw = 0.2) ?(loc = 0.5) ?(seed = 3) algo =
  let cfg = Core.Sys_params.table5 ~n_clients () in
  let xp = Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc () in
  Core.Simulator.default_spec ~seed ~warmup_commits:50 ~measured_commits:300
    ~cfg ~xact_params:xp algo

let all_algorithms =
  [
    Core.Proto.Two_phase Core.Proto.Inter;
    Core.Proto.Two_phase Core.Proto.Intra;
    Core.Proto.Certification Core.Proto.Inter;
    Core.Proto.Certification Core.Proto.Intra;
    Core.Proto.Callback;
    Core.Proto.No_wait { notify = None };
    Core.Proto.No_wait { notify = Some Core.Proto.Push };
    Core.Proto.No_wait { notify = Some Core.Proto.Invalidate };
  ]

let test_every_algorithm_completes () =
  List.iter
    (fun algo ->
      let r = Shard.Shard_sim.run (quick_spec algo) in
      let name = Core.Proto.algorithm_name algo in
      if r.Core.Simulator.commits < 300 then
        Alcotest.failf "%s: only %d commits" name r.Core.Simulator.commits;
      if r.Core.Simulator.mean_response <= 0.0 then
        Alcotest.failf "%s: non-positive response" name;
      if r.Core.Simulator.throughput <= 0.0 then
        Alcotest.failf "%s: non-positive throughput" name)
    all_algorithms

let test_determinism () =
  let r1 = Shard.Shard_sim.run (quick_spec (Core.Proto.Two_phase Core.Proto.Inter)) in
  let r2 = Shard.Shard_sim.run (quick_spec (Core.Proto.Two_phase Core.Proto.Inter)) in
  Alcotest.(check (float 0.0)) "same response" r1.Core.Simulator.mean_response
    r2.Core.Simulator.mean_response;
  Alcotest.(check int) "same events" r1.Core.Simulator.events r2.Core.Simulator.events

let test_seed_changes_results () =
  let r1 = Shard.Shard_sim.run (quick_spec ~seed:3 (Core.Proto.Two_phase Core.Proto.Inter)) in
  let r2 = Shard.Shard_sim.run (quick_spec ~seed:4 (Core.Proto.Two_phase Core.Proto.Inter)) in
  Alcotest.(check bool) "different event counts" true
    (r1.Core.Simulator.events <> r2.Core.Simulator.events)

let test_cert_has_no_deadlocks () =
  let r =
    Shard.Shard_sim.run
      (quick_spec ~pw:0.5 (Core.Proto.Certification Core.Proto.Inter))
  in
  Alcotest.(check int) "no deadlock aborts" 0 r.Core.Simulator.aborts_deadlock;
  Alcotest.(check int) "no stale aborts" 0 r.Core.Simulator.aborts_stale

let test_locking_has_no_cert_aborts () =
  let r = Shard.Shard_sim.run (quick_spec ~pw:0.5 (Core.Proto.Two_phase Core.Proto.Inter)) in
  Alcotest.(check int) "no cert aborts" 0 r.Core.Simulator.aborts_cert;
  Alcotest.(check int) "no stale aborts" 0 r.Core.Simulator.aborts_stale

let test_read_only_no_aborts () =
  List.iter
    (fun algo ->
      let r = Shard.Shard_sim.run (quick_spec ~pw:0.0 algo) in
      Alcotest.(check int)
        (Core.Proto.algorithm_name algo ^ " read-only aborts")
        0 r.Core.Simulator.aborts)
    all_algorithms

let test_callback_hit_ratio_dominates () =
  let cb = Shard.Shard_sim.run (quick_spec ~loc:0.75 ~pw:0.0 Core.Proto.Callback) in
  let tp =
    Shard.Shard_sim.run (quick_spec ~loc:0.75 ~pw:0.0 (Core.Proto.Two_phase Core.Proto.Inter))
  in
  if cb.Core.Simulator.hit_ratio <= tp.Core.Simulator.hit_ratio then
    Alcotest.failf "callback hit %.2f should beat 2PL hit %.2f"
      cb.Core.Simulator.hit_ratio tp.Core.Simulator.hit_ratio;
  if cb.Core.Simulator.hit_ratio < 0.3 then
    Alcotest.failf "callback hit ratio too low: %.2f" cb.Core.Simulator.hit_ratio

let test_intra_never_hits_across_xacts () =
  let r =
    Shard.Shard_sim.run (quick_spec ~loc:0.75 (Core.Proto.Two_phase Core.Proto.Intra))
  in
  (* intra caching still hits within a transaction (re-read objects), but
     the ratio must be small *)
  if r.Core.Simulator.hit_ratio > 0.35 then
    Alcotest.failf "intra hit ratio suspiciously high: %.2f" r.Core.Simulator.hit_ratio

let test_inter_beats_intra_response () =
  let inter = Shard.Shard_sim.run (quick_spec ~loc:0.75 ~pw:0.0 (Core.Proto.Two_phase Core.Proto.Inter)) in
  let intra = Shard.Shard_sim.run (quick_spec ~loc:0.75 ~pw:0.0 (Core.Proto.Two_phase Core.Proto.Intra)) in
  if inter.Core.Simulator.mean_response >= intra.Core.Simulator.mean_response then
    Alcotest.failf "inter (%.3f) should beat intra (%.3f)"
      inter.Core.Simulator.mean_response intra.Core.Simulator.mean_response

let test_callback_zero_message_commits () =
  (* at very high locality and no writes, callback sends far fewer
     messages than 2PL *)
  let cb = Shard.Shard_sim.run (quick_spec ~loc:0.75 ~pw:0.0 Core.Proto.Callback) in
  let tp = Shard.Shard_sim.run (quick_spec ~loc:0.75 ~pw:0.0 (Core.Proto.Two_phase Core.Proto.Inter)) in
  if cb.Core.Simulator.msgs_per_commit >= tp.Core.Simulator.msgs_per_commit then
    Alcotest.failf "callback msgs/commit %.1f should be below 2PL %.1f"
      cb.Core.Simulator.msgs_per_commit tp.Core.Simulator.msgs_per_commit

let test_notify_sends_pushes () =
  let r = Shard.Shard_sim.run (quick_spec ~pw:0.5 ~loc:0.5 (Core.Proto.No_wait { notify = Some Core.Proto.Push })) in
  Alcotest.(check bool) "pushes happened" true (r.Core.Simulator.pushes_sent > 0)

let test_plain_no_wait_never_pushes () =
  let r = Shard.Shard_sim.run (quick_spec ~pw:0.5 ~loc:0.5 (Core.Proto.No_wait { notify = None })) in
  Alcotest.(check int) "no pushes" 0 r.Core.Simulator.pushes_sent

let test_callback_sends_callbacks () =
  let r = Shard.Shard_sim.run (quick_spec ~pw:0.5 ~loc:0.5 Core.Proto.Callback) in
  Alcotest.(check bool) "callbacks happened" true (r.Core.Simulator.callbacks_sent > 0)

let test_interactive_response_dominated_by_think_time () =
  let cfg = Core.Sys_params.table5 ~n_clients:4 () in
  let xp = Db.Xact_params.interactive ~prob_write:0.0 ~inter_xact_loc:0.25 () in
  let spec =
    Core.Simulator.default_spec ~seed:3 ~warmup_commits:20 ~measured_commits:100
      ~cfg ~xact_params:xp (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let r = Shard.Shard_sim.run spec in
  (* 8 objects on average, 7 s of think time per object: ~56 s *)
  let rt = r.Core.Simulator.mean_response in
  if rt < 40.0 || rt > 75.0 then
    Alcotest.failf "interactive response %.1f outside [40, 75]" rt

let test_utilizations_bounded () =
  List.iter
    (fun algo ->
      let r = Shard.Shard_sim.run (quick_spec ~n_clients:20 ~pw:0.3 algo) in
      let check name v =
        if v < 0.0 || v > 1.000001 then
          Alcotest.failf "%s %s utilization out of range: %f"
            (Core.Proto.algorithm_name algo) name v
      in
      check "server cpu" r.Core.Simulator.server_cpu_util;
      check "client cpu" r.Core.Simulator.client_cpu_util;
      check "disk" r.Core.Simulator.disk_util;
      check "net" r.Core.Simulator.net_util;
      check "log" r.Core.Simulator.log_disk_util)
    [ Core.Proto.Two_phase Core.Proto.Inter; Core.Proto.Callback ]

let test_replication_averages () =
  let spec = quick_spec (Core.Proto.Two_phase Core.Proto.Inter) in
  let r = Shard.Shard_sim.run_replicated spec ~reps:3 in
  Alcotest.(check int) "commits summed over reps" (3 * 300) r.Core.Simulator.commits

(* Regression for the replication-statistics bug: stddev and quantiles
   must come from the pooled per-commit observations, not from averaging
   per-rep stddevs/quantiles (which is not a stddev or quantile of
   anything), and ratios must be ratios of pooled counts. *)
let test_replication_pools_statistics () =
  let spec = quick_spec (Core.Proto.Two_phase Core.Proto.Inter) in
  let pooled = Shard.Shard_sim.run_replicated spec ~reps:3 in
  let reps =
    List.map
      (fun k ->
        Shard.Shard_sim.run
          { spec with Core.Simulator.seed = spec.Core.Simulator.seed + k })
      [ 0; 1; 2 ]
  in
  let isum f = List.fold_left (fun a r -> a + f r) 0 reps in
  Alcotest.(check int) "commits pooled"
    (isum (fun r -> r.Core.Simulator.commits))
    pooled.Core.Simulator.commits;
  Alcotest.(check int) "messages pooled"
    (isum (fun r -> r.Core.Simulator.messages))
    pooled.Core.Simulator.messages;
  Alcotest.(check (float 1e-9)) "msgs_per_commit is ratio of pooled counts"
    (float_of_int pooled.Core.Simulator.messages
    /. float_of_int pooled.Core.Simulator.commits)
    pooled.Core.Simulator.msgs_per_commit;
  (* mean: commit-weighted mean of the per-rep means (one response
     observation per measured commit) *)
  let n_tot = float_of_int pooled.Core.Simulator.commits in
  let weighted_mean =
    List.fold_left
      (fun a (r : Core.Simulator.result) ->
        a +. (float_of_int r.Core.Simulator.commits *. r.Core.Simulator.mean_response))
      0.0 reps
    /. n_tot
  in
  Alcotest.(check (float 1e-6)) "pooled mean is commit-weighted mean"
    weighted_mean pooled.Core.Simulator.mean_response;
  (* stddev: merge the per-rep (n, mean, m2) moments exactly as a single
     pass over all observations would, then compare *)
  let n, _, m2 =
    List.fold_left
      (fun (na, ma, m2a) (r : Core.Simulator.result) ->
        let nb = float_of_int r.Core.Simulator.commits in
        let mb = r.Core.Simulator.mean_response in
        let m2b =
          r.Core.Simulator.response_stddev ** 2.0 *. (nb -. 1.0)
        in
        if na = 0.0 then (nb, mb, m2b)
        else
          let n = na +. nb in
          let d = mb -. ma in
          (n, ma +. (d *. nb /. n), m2a +. m2b +. (d *. d *. na *. nb /. n)))
      (0.0, 0.0, 0.0) reps
  in
  let expected_stddev = sqrt (m2 /. (n -. 1.0)) in
  Alcotest.(check (float 1e-6)) "pooled stddev from merged moments"
    expected_stddev pooled.Core.Simulator.response_stddev;
  (* and pooling is NOT the buggy average of per-rep stddevs *)
  let avg_stddev =
    List.fold_left
      (fun a (r : Core.Simulator.result) -> a +. r.Core.Simulator.response_stddev)
      0.0 reps
    /. 3.0
  in
  Alcotest.(check bool) "differs from averaged stddevs" true
    (Float.abs (avg_stddev -. pooled.Core.Simulator.response_stddev) > 1e-12);
  (* quantiles of the pooled samples live near the per-rep quantiles *)
  let fmin f = List.fold_left (fun a r -> Float.min a (f r)) infinity reps in
  let fmax f = List.fold_left (fun a r -> Float.max a (f r)) neg_infinity reps in
  let in_band name v lo hi =
    if v < (0.9 *. lo) -. 1e-9 || v > (1.1 *. hi) +. 1e-9 then
      Alcotest.failf "%s %.6f outside pooled band [%.6f, %.6f]" name v lo hi
  in
  in_band "p50" pooled.Core.Simulator.response_p50
    (fmin (fun r -> r.Core.Simulator.response_p50))
    (fmax (fun r -> r.Core.Simulator.response_p50));
  in_band "p95" pooled.Core.Simulator.response_p95
    (fmin (fun r -> r.Core.Simulator.response_p95))
    (fmax (fun r -> r.Core.Simulator.response_p95));
  Alcotest.(check bool) "p50 <= p95" true
    (pooled.Core.Simulator.response_p50 <= pooled.Core.Simulator.response_p95)

let test_replication_jobs_invariant () =
  let spec = quick_spec (Core.Proto.Two_phase Core.Proto.Inter) in
  let seq = Shard.Shard_sim.run_replicated ~jobs:1 spec ~reps:3 in
  let par = Shard.Shard_sim.run_replicated ~jobs:3 spec ~reps:3 in
  Alcotest.(check bool) "jobs=1 and jobs=3 results identical" true (seq = par)

let test_hot_spot_buffer_sharing () =
  (* a tiny database makes every page hot: buffer hits should keep disk
     reads well below total page requests *)
  let spec =
    {
      (quick_spec ~n_clients:10 ~pw:0.0 ~loc:0.0 (Core.Proto.Two_phase Core.Proto.Inter)) with
      Core.Simulator.db_params = Db.Db_params.uniform ~n_classes:2 ~pages_per_class:50 ();
    }
  in
  let r = Shard.Shard_sim.run spec in
  (* the whole database (100 pages) fits in the 400-page buffer: after
     warmup there should be almost no disk traffic *)
  if r.Core.Simulator.disk_util > 0.05 then
    Alcotest.failf "expected cold-only disk traffic, util=%.3f" r.Core.Simulator.disk_util

(* Per-client memory is proportional to what the client holds.  A 2PL
   Table 5 run at 2,000 clients, stopped after 20 commits, leaves nearly
   every client waiting for its first server reply, holding no page, lock
   or version: such a client must not pay for the tables it has never
   filled.  Eager tables cost about 1,620 live words per client here; with
   tables allocated on first insert it is about 510 (seeds 1-3).  The
   budget leaves about 25% headroom over that. *)
let live_words_per_client_budget = 640

let test_per_client_memory_budget () =
  let n_clients = 2_000 in
  let cfg = Core.Sys_params.table5 ~n_clients () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 () in
  let spec =
    Core.Simulator.default_spec ~seed:1 ~warmup_commits:0 ~measured_commits:20
      ~cfg ~xact_params:xp (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let per_client = ref 0 in
  let inspect _ _ =
    Gc.full_major ();
    per_client := (Gc.stat ()).Gc.live_words / n_clients
  in
  ignore (Shard.Shard_sim.run ~inspect spec);
  if !per_client > live_words_per_client_budget then
    Alcotest.failf "%d live words per client, budget %d" !per_client
      live_words_per_client_budget

(* A client is a process only while it has work: a thinking client is one
   pending event, and its inbox dispatcher exists only while messages are
   queued.  On the memory-budget configuration above nearly every client
   has sent its first request, so each client is at most one process: its
   transaction, blocked on the reply.  A message on the wire is a chain of
   events, not a process, and a request that waits for an MPL slot or for
   its transaction's running handler is a parked closure, so only the
   running handlers of the at most MPL admitted transactions are
   processes (they can wait on locks, the disk and log forces): the bound
   is n + MPL.  The
   allowance covers the server's own short-lived processes (abort
   cleanup).  Seeds 1-5 peak at 2,045-2,051 live processes for 2,000
   clients at MPL 50; with one suspended process per waiting request they
   peaked at 3,986-3,996. *)
let live_process_allowance = 20

let test_live_processes_per_client () =
  let n_clients = 2_000 in
  let cfg = Core.Sys_params.table5 ~n_clients () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 () in
  let spec =
    Core.Simulator.default_spec ~seed:1 ~warmup_commits:0 ~measured_commits:20
      ~obs:(Obs.Config.make ~profile:true ())
      ~cfg ~xact_params:xp (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let hwm =
    match (Shard.Shard_sim.run spec).Core.Simulator.obs with
    | Some { Obs.Run.reps = { Obs.Run.profile = Some p; _ } :: _ } ->
        p.Sim.Engine.pr_live_hwm
    | _ -> Alcotest.fail "no engine profile"
  in
  let bound = n_clients + cfg.Core.Sys_params.mpl + live_process_allowance in
  if hwm > bound then
    Alcotest.failf "%d live processes at %d clients, bound %d" hwm n_clients
      bound

(* A run records why it ended, so a short run cannot pass for a full one
   (a full one is checked by "random small configs run to completion"). *)
let test_stop_time_limit () =
  let spec =
    { (quick_spec Core.Proto.Callback) with Core.Simulator.max_sim_time = 2.0 }
  in
  let r = Shard.Shard_sim.run_replicated spec ~reps:2 in
  Alcotest.(check bool) "time limit, over both replications" true
    (r.Core.Simulator.stop = Core.Simulator.Time_limit);
  Alcotest.(check (float 0.0)) "stopped at the limit" 2.0
    r.Core.Simulator.sim_time

(* Callback locking with more clients than MPL slots: a client whose next
   request waits for a slot defers the callback an active transaction
   waits on.  The waits-for graph has no edge for the slot wait, so only
   the periodic detector's MPL rule breaks this; without it the heap
   drains at 241 of 400. *)
let test_callback_past_the_mpl () =
  let cfg = { (Core.Sys_params.table5 ~n_clients:20 ()) with Core.Sys_params.mpl = 2 } in
  let xp = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 () in
  let audit = Cc.History.create () in
  let spec =
    Core.Simulator.default_spec ~seed:2 ~warmup_commits:100 ~measured_commits:400
      ~cfg ~xact_params:xp Core.Proto.Callback
  in
  let r = Shard.Shard_sim.run ~audit spec in
  Alcotest.(check int) "commits" 400 r.Core.Simulator.commits;
  Alcotest.(check bool) "target reached" true
    (r.Core.Simulator.stop = Core.Simulator.Target_reached);
  match Cc.History.check audit with
  | Cc.History.Serializable -> ()
  | Cc.History.Cycle _ -> Alcotest.fail "MPL victims must keep serializability"

let prop_random_configs_complete =
  QCheck.Test.make ~name:"random small configs run to completion" ~count:12
    QCheck.(
      quad (int_range 2 12) (float_range 0.0 0.6) (float_range 0.0 0.8)
        (int_range 0 3))
    (fun (n_clients, pw, loc, algo_idx) ->
      let algo = List.nth Core.Proto.section5_algorithms algo_idx in
      let cfg = Core.Sys_params.table5 ~n_clients () in
      let xp = Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc () in
      let spec =
        Core.Simulator.default_spec ~seed:9 ~warmup_commits:20
          ~measured_commits:120 ~cfg ~xact_params:xp algo
      in
      let r = Shard.Shard_sim.run spec in
      r.Core.Simulator.commits >= 120
      && r.Core.Simulator.stop = Core.Simulator.Target_reached)


(* ------------------------------------------------------------------ *)
(* Serializability audit                                               *)
(* ------------------------------------------------------------------ *)

let audited_run ?(n_clients = 10) ?(pw = 0.4) ?(loc = 0.5) algo =
  let audit = Cc.History.create () in
  let spec = quick_spec ~n_clients ~pw ~loc algo in
  let r = Shard.Shard_sim.run ~audit spec in
  (r, audit)

let check_serializable algo =
  let r, audit = audited_run algo in
  Alcotest.(check bool)
    (Core.Proto.algorithm_name algo ^ " audit collected commits")
    true
    (Cc.History.size audit >= r.Core.Simulator.commits);
  match Cc.History.check audit with
  | Cc.History.Serializable -> ()
  | Cc.History.Cycle c ->
      Alcotest.failf "%s produced a non-serializable history (cycle [%s])"
        (Core.Proto.algorithm_name algo)
        (String.concat "," (List.map string_of_int c))

let test_serializability_all_algorithms () =
  List.iter check_serializable all_algorithms

let test_serializability_high_contention () =
  (* a tiny database and aggressive writes: the worst case for the
     optimistic algorithms *)
  List.iter
    (fun algo ->
      let audit = Cc.History.create () in
      let spec =
        {
          (quick_spec ~n_clients:12 ~pw:0.6 ~loc:0.3 algo) with
          Core.Simulator.db_params =
            Db.Db_params.uniform ~n_classes:4 ~pages_per_class:40 ();
        }
      in
      ignore (Shard.Shard_sim.run ~audit spec);
      match Cc.History.check audit with
      | Cc.History.Serializable -> ()
      | Cc.History.Cycle c ->
          Alcotest.failf "%s hot-spot run not serializable (cycle [%s])"
            (Core.Proto.algorithm_name algo)
            (String.concat "," (List.map string_of_int c)))
    [
      Core.Proto.Two_phase Core.Proto.Inter;
      Core.Proto.Certification Core.Proto.Inter;
      Core.Proto.Callback;
      Core.Proto.No_wait { notify = None };
      Core.Proto.No_wait { notify = Some Core.Proto.Push };
    ]


(* ------------------------------------------------------------------ *)
(* Configuration knobs (ablations)                                     *)
(* ------------------------------------------------------------------ *)

let test_stale_drop_one_still_completes () =
  let cfg =
    { (Core.Sys_params.table5 ~n_clients:8 ()) with Core.Sys_params.stale_drop_all = false }
  in
  let xp = Db.Xact_params.short_batch ~prob_write:0.4 ~inter_xact_loc:0.5 () in
  let spec =
    Core.Simulator.default_spec ~seed:3 ~warmup_commits:30 ~measured_commits:200
      ~cfg ~xact_params:xp (Core.Proto.No_wait { notify = None })
  in
  let r = Shard.Shard_sim.run spec in
  Alcotest.(check int) "commits" 200 r.Core.Simulator.commits

let test_restart_policies_complete () =
  List.iter
    (fun policy ->
      let cfg =
        { (Core.Sys_params.table5 ~n_clients:8 ()) with Core.Sys_params.restart_policy = policy }
      in
      let xp = Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.5 () in
      let spec =
        Core.Simulator.default_spec ~seed:3 ~warmup_commits:30
          ~measured_commits:200 ~cfg ~xact_params:xp
          (Core.Proto.Two_phase Core.Proto.Inter)
      in
      let r = Shard.Shard_sim.run spec in
      Alcotest.(check int) "commits" 200 r.Core.Simulator.commits)
    [ Core.Sys_params.Adaptive; Core.Sys_params.Fixed 0.5; Core.Sys_params.Immediate ]

let test_callback_grace_zero_completes_and_serializable () =
  let cfg =
    { (Core.Sys_params.table5 ~n_clients:8 ()) with Core.Sys_params.callback_grace = 0.0 }
  in
  let xp = Db.Xact_params.short_batch ~prob_write:0.4 ~inter_xact_loc:0.75 () in
  let audit = Cc.History.create () in
  let spec =
    Core.Simulator.default_spec ~seed:3 ~warmup_commits:30 ~measured_commits:200
      ~cfg ~xact_params:xp Core.Proto.Callback
  in
  let r = Shard.Shard_sim.run ~audit spec in
  Alcotest.(check int) "commits" 200 r.Core.Simulator.commits;
  match Cc.History.check audit with
  | Cc.History.Serializable -> ()
  | Cc.History.Cycle _ -> Alcotest.fail "grace=0 must still be serializable"

let test_multi_page_objects_serializable () =
  List.iter
    (fun algo ->
      let audit = Cc.History.create () in
      let spec =
        {
          (quick_spec ~n_clients:8 ~pw:0.3 ~loc:0.4 algo) with
          Core.Simulator.db_params =
            {
              (Db.Db_params.uniform ~n_classes:10 ~pages_per_class:60
                 ~object_size:4 ())
              with
              Db.Db_params.cluster_factor = 0.5;
            };
          measured_commits = 150;
          warmup_commits = 20;
        }
      in
      let r = Shard.Shard_sim.run ~audit spec in
      Alcotest.(check bool)
        (Core.Proto.algorithm_name algo ^ " completes")
        true
        (r.Core.Simulator.commits >= 150);
      match Cc.History.check audit with
      | Cc.History.Serializable -> ()
      | Cc.History.Cycle _ ->
          Alcotest.failf "%s multi-page objects not serializable"
            (Core.Proto.algorithm_name algo))
    [
      Core.Proto.Two_phase Core.Proto.Inter;
      Core.Proto.Certification Core.Proto.Inter;
      Core.Proto.Callback;
      Core.Proto.No_wait { notify = Some Core.Proto.Push };
    ]

let test_2pl_with_notification () =
  let cfg =
    { (Core.Sys_params.table5 ~n_clients:8 ()) with
      Core.Sys_params.notify_updates = Some Core.Proto.Push }
  in
  let xp = Db.Xact_params.short_batch ~prob_write:0.3 ~inter_xact_loc:0.5 () in
  let audit = Cc.History.create () in
  let spec =
    Core.Simulator.default_spec ~seed:3 ~warmup_commits:30 ~measured_commits:200
      ~cfg ~xact_params:xp (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let r = Shard.Shard_sim.run ~audit spec in
  Alcotest.(check int) "commits" 200 r.Core.Simulator.commits;
  Alcotest.(check bool) "pushes sent under 2PL" true (r.Core.Simulator.pushes_sent > 0);
  match Cc.History.check audit with
  | Cc.History.Serializable -> ()
  | Cc.History.Cycle _ -> Alcotest.fail "2PL+notify must stay serializable"

let test_retain_writes_serializable_and_cheaper () =
  let run rw =
    let cfg =
      { (Core.Sys_params.table5 ~n_clients:8 ()) with
        Core.Sys_params.callback_retain_writes = rw }
    in
    let xp = Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.75 () in
    let audit = Cc.History.create () in
    let spec =
      Core.Simulator.default_spec ~seed:3 ~warmup_commits:50
        ~measured_commits:400 ~cfg ~xact_params:xp Core.Proto.Callback
    in
    let r = Shard.Shard_sim.run ~audit spec in
    (match Cc.History.check audit with
    | Cc.History.Serializable -> ()
    | Cc.History.Cycle _ -> Alcotest.fail "retain-writes must stay serializable");
    r
  in
  let reads_only = run false and read_write = run true in
  if read_write.Core.Simulator.msgs_per_commit >= reads_only.Core.Simulator.msgs_per_commit
  then
    Alcotest.failf "retained X should save messages: %.1f vs %.1f"
      read_write.Core.Simulator.msgs_per_commit
      reads_only.Core.Simulator.msgs_per_commit

let test_small_cache_callback_releases_retained () =
  (* a cache smaller than the hot set forces retained-lock releases on
     eviction: server lock count must stay bounded by total cache frames *)
  let cfg =
    { (Core.Sys_params.table5 ~n_clients:6 ()) with Core.Sys_params.cache_size = 30 }
  in
  let xp = Db.Xact_params.short_batch ~prob_write:0.1 ~inter_xact_loc:0.75 () in
  let spec =
    Core.Simulator.default_spec ~seed:5 ~warmup_commits:30 ~measured_commits:300
      ~cfg ~xact_params:xp Core.Proto.Callback
  in
  let r = Shard.Shard_sim.run spec in
  Alcotest.(check int) "commits" 300 r.Core.Simulator.commits


(* ------------------------------------------------------------------ *)
(* MVA analytic cross-check                                            *)
(* ------------------------------------------------------------------ *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let test_mva_single_station () =
  (* one station, demand 1 s, no think time: N=1 -> X=1, R=1 *)
  let p =
    Core.Mva.solve
      { Core.Mva.n_clients = 1; think = 0.0;
        stations = [ { Core.Mva.name = "s"; demand = 1.0 } ] }
  in
  if not (feq p.Core.Mva.throughput 1.0) then Alcotest.fail "X=1";
  if not (feq p.Core.Mva.response 1.0) then Alcotest.fail "R=1";
  (* saturation: X -> 1/D *)
  let p50 =
    Core.Mva.solve
      { Core.Mva.n_clients = 50; think = 0.0;
        stations = [ { Core.Mva.name = "s"; demand = 1.0 } ] }
  in
  if not (feq p50.Core.Mva.throughput 1.0) then Alcotest.fail "X sat";
  if not (feq p50.Core.Mva.response 50.0) then Alcotest.fail "R = N*D";
  Alcotest.(check string) "bottleneck" "s" p50.Core.Mva.bottleneck

let test_mva_with_think_time () =
  (* M/M/1-like: light load with think time Z: X ~ N/(D+Z) *)
  let p =
    Core.Mva.solve
      { Core.Mva.n_clients = 1; think = 9.0;
        stations = [ { Core.Mva.name = "s"; demand = 1.0 } ] }
  in
  if not (feq p.Core.Mva.throughput 0.1) then
    Alcotest.failf "X=%f, expected 0.1" p.Core.Mva.throughput

let test_mva_asymptotic_bound () =
  (* throughput never exceeds 1/Dmax nor N/(R0+Z) *)
  let stations =
    [ { Core.Mva.name = "a"; demand = 0.03 };
      { Core.Mva.name = "b"; demand = 0.05 };
      { Core.Mva.name = "c"; demand = 0.01 } ]
  in
  List.iter
    (fun n ->
      let p = Core.Mva.solve { Core.Mva.n_clients = n; think = 0.5; stations } in
      if p.Core.Mva.throughput > (1.0 /. 0.05) +. 1e-9 then
        Alcotest.fail "exceeds bottleneck bound";
      let r0 = 0.03 +. 0.05 +. 0.01 in
      if p.Core.Mva.throughput > (float_of_int n /. (r0 +. 0.5)) +. 1e-9 then
        Alcotest.fail "exceeds population bound";
      List.iter
        (fun (_, u) -> if u < 0.0 || u > 1.0 +. 1e-9 then Alcotest.fail "util range")
        p.Core.Mva.station_utils)
    [ 1; 5; 20; 80 ]

let test_mva_monotone_throughput () =
  let stations = [ { Core.Mva.name = "s"; demand = 0.1 } ] in
  let xs =
    List.map
      (fun n ->
        (Core.Mva.solve { Core.Mva.n_clients = n; think = 1.0; stations })
          .Core.Mva.throughput)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let rec increasing = function
    | a :: b :: rest -> a <= b +. 1e-9 && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing xs)

let test_mva_matches_simulation_light_load () =
  (* read-only, no locality: no lock contention, so the product-form
     prediction should be close to the simulated system *)
  let cfg = Core.Sys_params.table5 ~n_clients:10 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.0 ~inter_xact_loc:0.0 () in
  let sim =
    Shard.Shard_sim.run
      (Core.Simulator.default_spec ~seed:3 ~warmup_commits:200
         ~measured_commits:1500 ~cfg ~xact_params:xp
         (Core.Proto.Two_phase Core.Proto.Inter))
  in
  (* estimate the server buffer hit ratio from the simulated disk rate is
     cheating; use the structural value: buffer 400 of 2000 pages ~ 0.2 *)
  let inputs = Core.Mva.demands_2pl cfg xp ~client_hit:0.05 ~buffer_hit:0.2 in
  let p = Core.Mva.solve inputs in
  let rel a b = Float.abs (a -. b) /. b in
  if rel p.Core.Mva.throughput sim.Core.Simulator.throughput > 0.25 then
    Alcotest.failf "throughput: mva %.2f vs sim %.2f" p.Core.Mva.throughput
      sim.Core.Simulator.throughput;
  let sim_response = sim.Core.Simulator.mean_response in
  if rel p.Core.Mva.response sim_response > 0.45 then
    Alcotest.failf "response: mva %.3f vs sim %.3f" p.Core.Mva.response
      sim_response

let test_mva_rejects_bad_inputs () =
  Alcotest.check_raises "no stations"
    (Invalid_argument "Mva.solve: no stations") (fun () ->
      ignore (Core.Mva.solve { Core.Mva.n_clients = 1; think = 0.0; stations = [] }));
  Alcotest.check_raises "bad hit"
    (Invalid_argument "Mva.demands_2pl: client_hit outside [0,1]") (fun () ->
      ignore
        (Core.Mva.demands_2pl (Core.Sys_params.table5 ())
           (Db.Xact_params.short_batch ()) ~client_hit:1.5 ~buffer_hit:0.2))


let test_no_locality_intra_equals_inter () =
  (* with zero locality and zero writes, inter-transaction caching has
     nothing to exploit: the two variants should be within a few percent *)
  let spec caching =
    Core.Simulator.default_spec ~seed:5 ~warmup_commits:50 ~measured_commits:400
      ~cfg:(Core.Sys_params.table5 ~n_clients:10 ())
      ~xact_params:(Db.Xact_params.short_batch ~prob_write:0.0 ~inter_xact_loc:0.0 ())
      (Core.Proto.Two_phase caching)
  in
  let inter = Shard.Shard_sim.run (spec Core.Proto.Inter) in
  let intra = Shard.Shard_sim.run (spec Core.Proto.Intra) in
  let rel =
    Float.abs (inter.Core.Simulator.mean_response -. intra.Core.Simulator.mean_response)
    /. intra.Core.Simulator.mean_response
  in
  if rel > 0.10 then
    Alcotest.failf "intra (%.3f) vs inter (%.3f) differ by %.0f%% at zero locality"
      intra.Core.Simulator.mean_response inter.Core.Simulator.mean_response
      (100.0 *. rel)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counts () =
  let eng = Sim.Engine.create () in
  let m = Core.Metrics.create eng in
  Core.Metrics.record_commit m ~response:1.0;
  Core.Metrics.record_commit m ~response:3.0;
  Core.Metrics.record_abort m Core.Metrics.Deadlock;
  Core.Metrics.record_abort m Core.Metrics.Cert_fail;
  Core.Metrics.record_lookup m ~hit:true;
  Core.Metrics.record_lookup m ~hit:false;
  Alcotest.(check int) "commits" 2 (Core.Metrics.commits m);
  Alcotest.(check int) "aborts" 2 (Core.Metrics.aborts m);
  Alcotest.(check int) "deadlocks" 1 (Core.Metrics.aborts_by m Core.Metrics.Deadlock);
  Alcotest.(check (float 1e-9)) "mean response" 2.0 (Core.Metrics.mean_response m);
  Alcotest.(check int) "hits" 1 (Core.Metrics.hits m);
  Alcotest.(check int) "lookups" 2 (Core.Metrics.lookups m)

let test_metrics_reset_keeps_total () =
  let eng = Sim.Engine.create () in
  let m = Core.Metrics.create eng in
  Core.Metrics.record_commit m ~response:1.0;
  Core.Metrics.reset m;
  Alcotest.(check int) "window cleared" 0 (Core.Metrics.commits m);
  Alcotest.(check int) "total preserved" 1 (Core.Metrics.total_commits m)

(* ------------------------------------------------------------------ *)
(* Proto                                                               *)
(* ------------------------------------------------------------------ *)

let test_xid_roundtrip () =
  for client = 0 to 5 do
    for seq = 1 to 100 do
      let x = Core.Proto.make_xid ~client ~seq in
      Alcotest.(check int) "client recovered" client (Core.Proto.xid_client x)
    done
  done

let test_message_sizes () =
  let control = 256 and page_size = 4096 in
  let bytes_c2s m = Core.Proto.c2s_bytes ~control ~page_size m in
  let bytes_s2c m = Core.Proto.s2c_bytes ~control ~page_size m in
  Alcotest.(check int) "fetch is control-sized" 256
    (bytes_c2s (fetch ~client:0 ~seq:1 [ fp 1; fp 2 ]));
  Alcotest.(check int) "commit carries updates" (256 + (2 * 4096))
    (bytes_c2s (commit ~client:0 ~seq:1 ~updates:[ 1; 2 ] ()));
  Alcotest.(check int) "reply carries data" (256 + 4096)
    (bytes_s2c (Core.Proto.Fetch_reply { xid = 1; req = 0; data = [ (1, 1) ] }));
  Alcotest.(check int) "push carries a page" (256 + 4096)
    (bytes_s2c (Core.Proto.Update_push { page = 1; version = 1 }));
  Alcotest.(check int) "invalidation is control-sized" 256
    (bytes_s2c (Core.Proto.Invalidate_page { page = 1 }))

let test_algorithm_names_unique () =
  let names = List.map Core.Proto.algorithm_name all_algorithms in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

let suites =
  [
    ( "server-2pl",
      [
        case "fetch miss returns data" test_fetch_miss_returns_data;
        case "valid version no data" test_fetch_valid_version_no_data;
        case "stale version gets data" test_fetch_stale_version_gets_data;
        case "commit bumps and releases" test_commit_bumps_versions_and_releases;
        case "write blocks reader" test_write_blocks_reader_until_commit;
        case "deadlock aborts youngest" test_deadlock_aborts_youngest;
        case "tombstoned commit aborted" test_tombstoned_commit_gets_aborted_reply;
        case "mpl admission queues" test_mpl_admission_queues;
        case "read-only commit" test_read_only_commit_is_ok;
        case "close keeps newer xact indexed" test_close_keeps_newer_xact_indexed;
      ] );
    ( "server-cert",
      [
        case "cert read never blocks" test_cert_read_never_blocks;
        case "commit validates" test_cert_commit_validates;
        case "stale read fails commit" test_cert_commit_fails_on_stale_read;
        case "write-write: one wins" test_cert_write_write_one_wins;
      ] );
    ( "server-callback",
      [
        case "callback request to holder" test_callback_request_sent_to_holder;
        case "commit downgrades X to S" test_callback_commit_downgrades_x_to_retained_s;
        case "commit releases requested pages" test_callback_commit_releases_requested_pages;
        case "release retained" test_release_retained_message;
        case "retain-writes keeps X" test_callback_retain_writes_keeps_x;
        case "nag stops when its wait ends" test_callback_nag_stops_when_its_wait_ends;
        case "abort keeps old retained locks" test_callback_abort_keeps_old_retained_locks;
      ] );
    ( "server-no-wait",
      [
        case "silent on success" test_no_wait_silent_on_success;
        case "stale aborts with page" test_no_wait_stale_aborts_with_page;
        case "push to caching clients" test_notify_pushes_to_caching_clients;
        case "invalidate mode" test_notify_invalidate_mode;
      ] );
    ( "server-buffer",
      [
        case "hot page buffer hit" test_buffer_caches_hot_page;
        case "joined reads resume in order" test_joined_reads_resume_in_order;
        case "commit forces log" test_commit_forces_log;
      ] );
    ( "integration",
      [
        case "every algorithm completes" test_every_algorithm_completes;
        case "deterministic per seed" test_determinism;
        case "seed changes results" test_seed_changes_results;
        case "cert never deadlocks" test_cert_has_no_deadlocks;
        case "2PL never cert-aborts" test_locking_has_no_cert_aborts;
        case "read-only workloads never abort" test_read_only_no_aborts;
        case "callback hit ratio dominates" test_callback_hit_ratio_dominates;
        case "intra hit ratio small" test_intra_never_hits_across_xacts;
        case "inter beats intra" test_inter_beats_intra_response;
        case "zero locality: intra == inter" test_no_locality_intra_equals_inter;
        case "callback saves messages" test_callback_zero_message_commits;
        case "notify sends pushes" test_notify_sends_pushes;
        case "plain no-wait never pushes" test_plain_no_wait_never_pushes;
        case "callback sends callbacks" test_callback_sends_callbacks;
        case "interactive think-time response" test_interactive_response_dominated_by_think_time;
        case "utilizations bounded" test_utilizations_bounded;
        case "replication sums commits" test_replication_averages;
        case "replication pools statistics" test_replication_pools_statistics;
        case "replication jobs invariant" test_replication_jobs_invariant;
        case "hot database stays in buffer" test_hot_spot_buffer_sharing;
        case "per-client memory budget" test_per_client_memory_budget;
        case "live processes per client" test_live_processes_per_client;
        case "stop: time limit" test_stop_time_limit;
        case "callback past the MPL" test_callback_past_the_mpl;
      ] );
    qsuite "integration-props" [ prop_random_configs_complete ];
    ( "serializability",
      [
        case "all algorithms serializable" test_serializability_all_algorithms;
        case "hot-spot contention serializable" test_serializability_high_contention;
        case "multi-page objects serializable" test_multi_page_objects_serializable;
      ] );
    ( "mva",
      [
        case "single station" test_mva_single_station;
        case "think time" test_mva_with_think_time;
        case "asymptotic bounds" test_mva_asymptotic_bound;
        case "monotone throughput" test_mva_monotone_throughput;
        case "matches light-load simulation" test_mva_matches_simulation_light_load;
        case "rejects bad inputs" test_mva_rejects_bad_inputs;
      ] );
    ( "config-knobs",
      [
        case "stale drop-one completes" test_stale_drop_one_still_completes;
        case "restart policies complete" test_restart_policies_complete;
        case "grace zero serializable" test_callback_grace_zero_completes_and_serializable;
        case "2PL with notification" test_2pl_with_notification;
        case "retain-writes serializable and cheaper" test_retain_writes_serializable_and_cheaper;
        case "small cache callback" test_small_cache_callback_releases_retained;
      ] );
    ( "metrics",
      [
        case "counts" test_metrics_counts;
        case "reset keeps total" test_metrics_reset_keeps_total;
      ] );
    ( "proto",
      [
        case "xid roundtrip" test_xid_roundtrip;
        case "message sizes" test_message_sizes;
        case "algorithm names unique" test_algorithm_names_unique;
      ] );
  ]

let () = Alcotest.run "core" suites
