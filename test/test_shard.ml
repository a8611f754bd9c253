(* Sharding: directory map, router dispatch, presumed-abort 2PC, and
   the shard-count bounds of the one assembly. *)

let quick_spec ?(n_clients = 8) ?(n_shards = 4) ?(pw = 0.2) ?(loc = 0.5)
    ?(seed = 3) ?(fault = Fault.Plan.none) algo =
  let cfg = Core.Sys_params.table5 ~n_clients () in
  let xp = Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc () in
  let spec =
    Core.Simulator.default_spec ~seed ~warmup_commits:50 ~measured_commits:300
      ~cfg ~xact_params:xp algo
  in
  { spec with Core.Simulator.n_shards; fault }

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

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)
(* ------------------------------------------------------------------ *)

let test_map_covers_all_pages () =
  let db = Db.Database.create (Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ()) in
  List.iter
    (fun n ->
      let map = Shard.Shard_map.create db ~n_shards:n in
      let seen = Array.make n 0 in
      for p = 0 to Db.Database.n_pages db - 1 do
        let s = Shard.Shard_map.shard_of_page map p in
        Alcotest.(check bool) "shard in range" true (s >= 0 && s < n);
        seen.(s) <- seen.(s) + 1
      done;
      if n <= Db.Database.n_classes db then
        Array.iteri
          (fun s c ->
            if c = 0 then Alcotest.failf "shard %d of %d owns no pages" s n)
          seen)
    [ 1; 2; 3; 4; 7; 16 ]

let test_map_partition () =
  let db = Db.Database.create (Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ()) in
  let map = Shard.Shard_map.create db ~n_shards:4 in
  let pages = [ 0; 1; Db.Database.n_pages db - 1; 2; 0 ] in
  let parts = Shard.Shard_map.partition_pages map pages in
  let flat = List.concat_map snd parts in
  Alcotest.(check int) "no page lost" (List.length pages) (List.length flat);
  List.iter
    (fun (s, ps) ->
      List.iter
        (fun p ->
          Alcotest.(check int) "page on its shard" s
            (Shard.Shard_map.shard_of_page map p))
        ps)
    parts;
  let shards = List.map fst parts in
  Alcotest.(check bool) "ascending shards" true
    (List.sort compare shards = shards)

(* ------------------------------------------------------------------ *)
(* Sharded simulations                                                 *)
(* ------------------------------------------------------------------ *)

let test_sharded_every_algorithm_completes () =
  List.iter
    (fun algo ->
      let r = Shard.Shard_sim.run (quick_spec algo) in
      let name = Core.Proto.algorithm_name algo in
      if r.Core.Simulator.commits < 300 then
        Alcotest.failf "%s: only %d commits" name r.Core.Simulator.commits;
      if r.Core.Simulator.prepares = 0 then
        Alcotest.failf "%s: no 2PC prepares under 4 shards" name;
      if r.Core.Simulator.xshard_commits = 0 then
        Alcotest.failf "%s: no cross-shard commits under 4 shards" name;
      let shard_sum = Array.fold_left ( + ) 0 r.Core.Simulator.shard_commits in
      if shard_sum < r.Core.Simulator.xshard_commits then
        Alcotest.failf "%s: per-shard commit counters missing" name)
    all_algorithms

let test_sharded_determinism () =
  let algo = Core.Proto.Two_phase Core.Proto.Inter in
  let r1 = Shard.Shard_sim.run (quick_spec algo) in
  let r2 = Shard.Shard_sim.run (quick_spec algo) in
  Alcotest.(check (float 0.0))
    "same response" r1.Core.Simulator.mean_response
    r2.Core.Simulator.mean_response;
  Alcotest.(check int) "same events" r1.Core.Simulator.events
    r2.Core.Simulator.events;
  Alcotest.(check int) "same xshard commits" r1.Core.Simulator.xshard_commits
    r2.Core.Simulator.xshard_commits

let test_shard_count_bounds () =
  List.iter
    (fun n_shards ->
      Alcotest.check_raises
        (Printf.sprintf "n_shards = %d rejected" n_shards)
        (Invalid_argument "Shard_sim.run_with_stats: n_shards < 1")
        (fun () ->
          ignore
            (Shard.Shard_sim.run
               (quick_spec ~n_shards (Core.Proto.Two_phase Core.Proto.Inter)))))
    [ 0; -1 ];
  (* one shard is the single-server topology: one server, no 2PC *)
  List.iter
    (fun algo ->
      let name = Core.Proto.algorithm_name algo in
      let inspected = ref (-1) in
      let r =
        Shard.Shard_sim.run
          ~inspect:(fun servers _ -> inspected := Array.length servers)
          (quick_spec ~n_shards:1 algo)
      in
      Alcotest.(check int) (name ^ ": inspect sees one server") 1 !inspected;
      Alcotest.(check int) (name ^ ": n_shards") 1 r.Core.Simulator.n_shards;
      Alcotest.(check int) (name ^ ": no prepares") 0 r.Core.Simulator.prepares;
      Alcotest.(check int)
        (name ^ ": no 2PC commits")
        0 r.Core.Simulator.xshard_commits)
    [ Core.Proto.Two_phase Core.Proto.Inter; Core.Proto.Callback ]

(* ------------------------------------------------------------------ *)
(* Log manager: prepare records and in-doubt resolution                *)
(* ------------------------------------------------------------------ *)

let fixed_seek =
  { Storage.Disk.seek_low = 0.035; seek_high = 0.035; transfer_time = 0.002 }

let test_prepare_in_doubt () =
  let eng = Sim.Engine.create () in
  let d =
    Storage.Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" fixed_seek
  in
  let log = Storage.Log_manager.create eng ~disk:d () in
  Sim.Engine.spawn eng (fun () ->
      (* x7 prepares and never hears a decision; x9 prepares then
         commits; x11 prepares then aborts *)
      Storage.Log_manager.force_prepare log ~xid:7 ~decider:0
        ~read_pages:[ 1; 2 ] ~updates:[ (3, 1) ];
      Storage.Log_manager.force_prepare log ~xid:9 ~decider:2 ~read_pages:[]
        ~updates:[ (4, 1) ];
      Storage.Log_manager.force_prepare log ~xid:11 ~decider:1 ~read_pages:[]
        ~updates:[ (5, 1) ];
      Storage.Log_manager.append_commit log ~xid:9 ~updates:[ (4, 1) ];
      Storage.Log_manager.force_commit log ~n_updates:1;
      Storage.Log_manager.force_abort log ~xid:11);
  ignore (Sim.Engine.run eng ());
  Storage.Log_manager.crash log;
  (match Storage.Log_manager.in_doubt log with
  | [ (xid, decider, reads, updates) ] ->
      Alcotest.(check int) "in-doubt xid" 7 xid;
      Alcotest.(check int) "decider" 0 decider;
      Alcotest.(check (list int)) "read slice" [ 1; 2 ] reads;
      Alcotest.(check (list (pair int int))) "update slice" [ (3, 1) ] updates
  | l -> Alcotest.failf "expected exactly x7 in doubt, got %d" (List.length l));
  Alcotest.(check bool)
    "x9 commit durable" true
    (Storage.Log_manager.durable_commit_updates log ~xid:9 = Some [ (4, 1) ]);
  let outcomes = Storage.Log_manager.durable_outcomes log in
  Alcotest.(check bool) "x9 committed" true (List.mem (9, true) outcomes);
  Alcotest.(check bool) "x11 aborted" true (List.mem (11, false) outcomes);
  Alcotest.(check bool) "x7 undecided" true
    (not (List.mem_assoc 7 outcomes))

(* ------------------------------------------------------------------ *)
(* 2PC edge cases (satellite: coordinator amnesia, vote-abort,         *)
(* recovery retransmission, cross-shard deadlock)                      *)
(* ------------------------------------------------------------------ *)

let audited ?n_clients ?(n_shards = 4) ?(hot = false)
    ?(measured_commits = 150) ~fault algo =
  Experiments.Chaos.audit_run
    (Experiments.Chaos.spec ?n_clients ~n_shards ~hot ~measured_commits
       ~fault algo)

let check_ok name v =
  if not (Experiments.Chaos.ok v) then
    Alcotest.failf "%s: %s" name
      (String.concat " | " v.Experiments.Chaos.v_errors)

let result v = Option.get v.Experiments.Chaos.v_result

(* Coordinator crash between prepare and commit: the router forgets the
   attempt half the time, so prepared participants survive on client
   retransmission (idempotent re-vote) or the shard-to-shard termination
   protocol.  The full chaos audit must still pass. *)
let test_coordinator_amnesia () =
  let fault =
    { Fault.Plan.none with
      Fault.Plan.seed = 5;
      coord_crash_prob = 0.5;
      req_timeout = 1.0;
      max_backoff = 8.0;
    }
  in
  let v = audited ~fault (Core.Proto.Two_phase Core.Proto.Inter) in
  check_ok "amnesia" v;
  let r = result v in
  Alcotest.(check bool)
    "cross-shard commits happened" true
    (r.Core.Simulator.xshard_commits > 0);
  Alcotest.(check bool)
    "amnesia forced redrives or queries" true
    (r.Core.Simulator.retries > 0 || r.Core.Simulator.outcome_queries > 0)

(* One shard votes abort: certification on a hot two-class database split
   over two shards makes per-shard validation fail while the sibling
   slice would pass — the router must fan the global abort out and the
   history must stay serializable. *)
let test_vote_abort () =
  let v =
    audited ~n_shards:2 ~hot:true ~fault:{ Fault.Plan.none with seed = 2 }
      (Core.Proto.Certification Core.Proto.Inter)
  in
  check_ok "vote-abort" v;
  let r = result v in
  Alcotest.(check bool)
    "some cross-shard 2PC aborted" true
    (r.Core.Simulator.xshard_aborts > 0);
  Alcotest.(check bool)
    "and some committed" true
    (r.Core.Simulator.xshard_commits > 0)

(* The plan the chaos shrinker reduced no-wait+notify seed 4 to: one
   duplicated Decision or Prepare, arriving while a shard applies the
   commit (log force, installs, notifications), used to find no slice
   and no reply there, be acknowledged as an abort or re-prepared, and
   raise participant-aborted-committed-transaction at the router. *)
let test_duplicate_while_deciding () =
  let fault =
    {
      (Fault.Plan.default ~seed:4) with
      Fault.Plan.drop_prob = 0.0;
      delay_prob = 0.00078125;
      crash_mean = 0.0;
      restart_mean = 0.0;
    }
  in
  check_ok "duplicate while deciding"
    (audited ~fault (Core.Proto.No_wait { notify = Some Core.Proto.Push }))

(* Shard crashes mid-2PC: prepared slices replay as in-doubt, decisions
   retransmitted after recovery are answered from durable outcomes, and
   the per-shard durability + cross-shard atomicity audits must hold. *)
let test_recovery_retransmission () =
  List.iter
    (fun seed ->
      let v =
        audited ~fault:(Fault.Plan.shard_default ~seed)
          (Core.Proto.Two_phase Core.Proto.Inter)
      in
      check_ok (Printf.sprintf "recovery seed %d" seed) v;
      let r = result v in
      Alcotest.(check bool)
        "shards crashed" true
        (r.Core.Simulator.server_crashes > 0);
      Alcotest.(check bool)
        "cross-shard commits survived" true
        (r.Core.Simulator.xshard_commits > 0))
    [ 1; 2 ]

(* Cross-shard deadlock: with locking split across two shard lock tables,
   cycles only close in the union waits-for graph.  The run must resolve
   them (deadlock aborts, not a hang) and reach its commit target. *)
let test_cross_shard_deadlock () =
  let v =
    audited ~n_shards:2 ~hot:true ~fault:{ Fault.Plan.none with seed = 4 }
      (Core.Proto.Two_phase Core.Proto.Inter)
  in
  check_ok "cross-shard deadlock" v;
  let r = result v in
  Alcotest.(check bool)
    "deadlocks detected and broken" true
    (r.Core.Simulator.aborts_deadlock > 0)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "shard_map",
      [
        Alcotest.test_case "covers all pages" `Quick test_map_covers_all_pages;
        Alcotest.test_case "partition" `Quick test_map_partition;
      ] );
    ( "sharded_sim",
      [
        Alcotest.test_case "every algorithm completes" `Slow
          test_sharded_every_algorithm_completes;
        Alcotest.test_case "deterministic" `Quick test_sharded_determinism;
        Alcotest.test_case "shard count bounds" `Quick test_shard_count_bounds;
      ] );
    ( "two_phase_commit",
      [
        Alcotest.test_case "prepare records and in-doubt" `Quick
          test_prepare_in_doubt;
        Alcotest.test_case "coordinator amnesia" `Slow
          test_coordinator_amnesia;
        Alcotest.test_case "one shard votes abort" `Slow test_vote_abort;
        Alcotest.test_case "duplicate while deciding" `Slow
          test_duplicate_while_deciding;
        Alcotest.test_case "recovery retransmission" `Slow
          test_recovery_retransmission;
        Alcotest.test_case "cross-shard deadlock" `Slow
          test_cross_shard_deadlock;
      ] );
  ]

let () = Alcotest.run "shard" suites
