(* Tests for the causal message-tracing layer: sink roundtrip, DAG
   reconstruction/validation (QCheck: every transaction's DAG stays
   acyclic, single-rooted and edge-time-monotone under client crashes
   and coordinator amnesia at 1 and 4 shards), critical-chain
   reconciliation with the span decomposition, message-amplification
   accounting, Perfetto flow-event JSON escaping, .dag artifact
   j-invariance, and recorder-off purity. *)

let case name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let contains text s =
  let n = String.length text and m = String.length s in
  let rec go i = i + m <= n && (String.sub text i m = s || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Sink roundtrip                                                      *)
(* ------------------------------------------------------------------ *)

let tag ?(parent = -1) ?(xid = 0) ?(owner = 0) ?(kind = "read_req")
    ?(src = Obs.Causal.Client 0) ?(dst = Obs.Causal.Shard 0) ?(retry = 0) () =
  {
    Obs.Causal.tg_parent = parent;
    tg_xid = xid;
    tg_owner = owner;
    tg_kind = kind;
    tg_src = src;
    tg_dst = dst;
    tg_retry = retry;
  }

(* Run [f] with a fresh causal buffer installed; the filled buffer. *)
let record_causal f =
  let buf = Obs.Causal.create () in
  Obs.Sink.with_ { Obs.Sink.none with Obs.Sink.causal = Some buf } f;
  buf

let test_sink_roundtrip () =
  let buf =
    record_causal (fun () ->
        let root = Obs.Sink.root ~time:1.0 ~client:0 in
        let req =
          Obs.Sink.send ~time:1.0 ~tag:(tag ~parent:root ()) ~bytes:200
            ~pkts:1 ~dup:0
        in
        Obs.Sink.recv ~time:1.5 req;
        let reply =
          Obs.Sink.send ~time:1.5
            ~tag:
              (tag ~parent:req ~kind:"read_reply" ~src:(Obs.Causal.Shard 0)
                 ~dst:(Obs.Causal.Client 0) ())
            ~bytes:4200 ~pkts:2 ~dup:0
        in
        Obs.Sink.recv ~time:2.0 reply;
        Obs.Sink.finish ~time:2.0 ~parent:reply ~xid:0 ~client:0 ~ok:true)
  in
  let es = Obs.Causal.entries buf in
  Alcotest.(check int) "six entries" 6 (Array.length es);
  let an = Obs.Causal.analyze (Array.map (fun e -> (0, e)) es) in
  Alcotest.(check bool) "well-formed" true
    (Obs.Causal.check_ok an.Obs.Causal.an_check);
  Alcotest.(check int) "one group" 1 an.Obs.Causal.an_check.Obs.Causal.ck_groups;
  Alcotest.(check int) "committed" 1
    an.Obs.Causal.an_check.Obs.Causal.ck_committed;
  (match an.Obs.Causal.an_dags with
  | [| d |] ->
      Alcotest.(check int) "both messages attributed" 2 d.Obs.Causal.dg_msgs;
      Alcotest.(check (float 1e-12)) "duration" 1.0
        (d.Obs.Causal.dg_finish -. d.Obs.Causal.dg_start);
      (* the gating chain walks root -> request -> reply -> end *)
      Alcotest.(check (list string))
        "chain labels"
        [ "root"; "read_req"; "read_reply"; "end" ]
        (List.map (fun l -> l.Obs.Causal.lk_label) d.Obs.Causal.dg_chain)
  | _ -> Alcotest.fail "expected exactly one dag");
  Alcotest.(check (float 1e-12)) "chain sum" 1.0 an.Obs.Causal.an_chain_sum

let test_no_sink_is_noop () =
  Alcotest.(check int) "root sentinel" (-1)
    (Obs.Sink.root ~time:0.0 ~client:0);
  Alcotest.(check int) "send sentinel" (-1)
    (Obs.Sink.send ~time:0.0 ~tag:(tag ()) ~bytes:1 ~pkts:1 ~dup:0);
  Obs.Sink.recv ~time:0.0 7;
  Obs.Sink.drop ~time:0.0 7;
  Obs.Sink.finish ~time:0.0 ~parent:7 ~xid:0 ~client:0 ~ok:true;
  Alcotest.(check bool) "inactive" false (Obs.Sink.causal_on ())

(* ------------------------------------------------------------------ *)
(* Validation catches malformed records                                *)
(* ------------------------------------------------------------------ *)

let mk cz_time cz_seq cz_ev = { Obs.Causal.cz_time; cz_seq; cz_ev }

let test_analyze_catches_malformed () =
  let bad name es =
    let an = Obs.Causal.analyze (Array.map (fun e -> (0, e)) es) in
    Alcotest.(check bool) (name ^ " flagged") false
      (Obs.Causal.check_ok an.Obs.Causal.an_check)
  in
  let send ?(parent = -1) ?(time = 1.0) id =
    mk time id
      (Obs.Causal.Send
         {
           id;
           parent;
           xid = 0;
           owner = 0;
           kind = "k";
           src = Obs.Causal.Client 0;
           dst = Obs.Causal.Shard 0;
           bytes = 1;
           pkts = 1;
           retry = 0;
           dup = 0;
         })
  in
  (* delivery of a node never sent *)
  bad "orphan recv" [| mk 1.0 0 (Obs.Causal.Recv { id = 42 }) |];
  (* double delivery *)
  bad "double recv"
    [| send 1; mk 2.0 2 (Obs.Causal.Recv { id = 1 });
       mk 3.0 3 (Obs.Causal.Recv { id = 1 }) |];
  (* receive before the send instant *)
  bad "recv before send"
    [| send ~time:5.0 1; mk 4.0 2 (Obs.Causal.Recv { id = 1 }) |];
  (* a send caused by a node delivered after it (time travel) *)
  bad "child precedes parent delivery"
    [| send ~time:1.0 1; mk 9.0 3 (Obs.Causal.Recv { id = 1 });
       send ~parent:1 ~time:2.0 2 |];
  (* two roots closing into one group id *)
  bad "end without root"
    [| mk 1.0 0
         (Obs.Causal.End { id = 9; parent = -1; xid = 0; client = 0; ok = true })
    |];
  (* ring overwrite relaxes the orphan checks *)
  let orphan = [| (0, mk 1.0 0 (Obs.Causal.Recv { id = 42 })) |] in
  let an = Obs.Causal.analyze ~dropped:10 orphan in
  Alcotest.(check bool) "relaxed passes" true
    (Obs.Causal.check_ok an.Obs.Causal.an_check)

(* ------------------------------------------------------------------ *)
(* Real runs: structural property under faults (QCheck)                *)
(* ------------------------------------------------------------------ *)

let small_spec ?(obs = Obs.Config.causal) ?(seed = 7) ?(n_shards = 1)
    ?(fault = Fault.Plan.none) algo =
  let cfg = Core.Sys_params.table5 ~n_clients:4 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.3 ~inter_xact_loc:0.5 () in
  {
    (Core.Simulator.default_spec ~seed ~warmup_commits:20 ~measured_commits:60
       ~obs ~cfg ~xact_params:xp algo)
    with
    Core.Simulator.db_params =
      Db.Db_params.uniform ~n_classes:4 ~pages_per_class:25 ();
    n_shards;
    fault;
  }

let obs_of r =
  match r.Core.Simulator.obs with
  | None -> Alcotest.fail "no obs payload"
  | Some o -> o

let analyze_run o =
  Obs.Causal.analyze
    ~dropped:(Obs.Run.causal_dropped o)
    (Obs.Run.merged_causal o)

(* The chain must be edge-time-monotone: along the gating path every
   message departs no earlier than its cause was delivered, and arrives
   no earlier than it departed. *)
let assert_chain_monotone name (d : Obs.Causal.dag) =
  let rec walk prev_recv = function
    | [] -> ()
    | (l : Obs.Causal.link) :: rest ->
        if l.Obs.Causal.lk_send +. 1e-12 < prev_recv then
          Alcotest.failf "%s: chain not monotone at %s (%.9f < %.9f)" name
            l.Obs.Causal.lk_label l.Obs.Causal.lk_send prev_recv;
        if l.Obs.Causal.lk_recv +. 1e-12 < l.Obs.Causal.lk_send then
          Alcotest.failf "%s: link %s delivered before sent" name
            l.Obs.Causal.lk_label;
        walk l.Obs.Causal.lk_recv rest
  in
  walk neg_infinity d.Obs.Causal.dg_chain

(* One fault scenario per QCheck case: a random seed under either the
   default plan (client crashes, drops, delays, duplicates) at one
   shard, or coordinator amnesia at four. *)
let qtest_dags_wellformed_under_faults =
  QCheck.Test.make
    ~name:
      "DAGs stay acyclic, single-rooted and time-monotone under client \
       crashes and coordinator amnesia"
    ~count:8
    QCheck.(pair (int_range 1 1000) bool)
    (fun (seed, sharded) ->
      let fault, n_shards =
        if sharded then
          ( {
              Fault.Plan.none with
              Fault.Plan.seed;
              coord_crash_prob = 0.5;
              req_timeout = 1.0;
              max_backoff = 8.0;
            },
            4 )
        else (Fault.Plan.default ~seed, 1)
      in
      let spec =
        small_spec ~seed ~n_shards ~fault (Core.Proto.Two_phase Core.Proto.Inter)
      in
      let o = obs_of (Shard.Shard_sim.run spec) in
      let an = analyze_run o in
      (* validation covers acyclicity (parents precede children), the
         single root per group, and send <= receive on every edge *)
      if not (Obs.Causal.check_ok an.Obs.Causal.an_check) then
        QCheck.Test.fail_reportf "seed %d shards %d: %s" seed n_shards
          (Format.asprintf "%a" Obs.Causal.pp_check an.Obs.Causal.an_check);
      Array.iter
        (assert_chain_monotone (Printf.sprintf "seed %d" seed))
        an.Obs.Causal.an_dags;
      an.Obs.Causal.an_check.Obs.Causal.ck_groups > 0)

(* ------------------------------------------------------------------ *)
(* Reconciliation with the span decomposition                          *)
(* ------------------------------------------------------------------ *)

let protocols =
  [
    ("2pl-inter", Core.Proto.Two_phase Core.Proto.Inter);
    ("cert-inter", Core.Proto.Certification Core.Proto.Inter);
    ("callback", Core.Proto.Callback);
    ("no-wait", Core.Proto.No_wait { notify = Some Core.Proto.Push });
  ]

let check_reconciles name spec =
  let o = obs_of (Shard.Shard_sim.run spec) in
  let an = analyze_run o in
  Alcotest.(check bool) (name ^ " well-formed") true
    (Obs.Causal.check_ok an.Obs.Causal.an_check);
  Alcotest.(check bool)
    (name ^ " has committed dags")
    true
    (an.Obs.Causal.an_check.Obs.Causal.ck_committed > 0);
  let cp = Obs.Critical_path.analyze (Obs.Run.merged_spans o) in
  let residual =
    Float.abs (an.Obs.Causal.an_chain_sum -. cp.Obs.Critical_path.cp_end_to_end)
  in
  if residual > 1e-9 then
    Alcotest.failf "%s: chain sum %.12f vs span end-to-end %.12f" name
      an.Obs.Causal.an_chain_sum cp.Obs.Critical_path.cp_end_to_end

let test_chain_reconciles_one_shard () =
  List.iter
    (fun (name, algo) -> check_reconciles name (small_spec algo))
    protocols

let test_chain_reconciles_four_shards () =
  List.iter
    (fun (name, algo) ->
      check_reconciles (name ^ "@4") (small_spec ~n_shards:4 algo))
    [ List.hd protocols; List.nth protocols 2 ]

(* ------------------------------------------------------------------ *)
(* Amplification accounting                                            *)
(* ------------------------------------------------------------------ *)

let test_amplification_accounts_every_send () =
  let o =
    obs_of
      (Shard.Shard_sim.run
         (small_spec (Core.Proto.Two_phase Core.Proto.Inter)))
  in
  let causal = Obs.Run.merged_causal o in
  let an = Obs.Causal.analyze causal in
  let amps = Obs.Causal.amplification causal in
  let total = List.fold_left (fun n a -> n + a.Obs.Causal.am_msgs) 0 amps in
  Alcotest.(check int) "per-kind rows sum to the message count"
    an.Obs.Causal.an_check.Obs.Causal.ck_msgs total;
  (* a fault-free run retransmits and duplicates nothing *)
  List.iter
    (fun (a : Obs.Causal.amp) ->
      Alcotest.(check int) (a.Obs.Causal.am_kind ^ " retx") 0
        a.Obs.Causal.am_retx;
      Alcotest.(check int) (a.Obs.Causal.am_kind ^ " dups") 0
        a.Obs.Causal.am_dups;
      Alcotest.(check bool) (a.Obs.Causal.am_kind ^ " bytes") true
        (a.Obs.Causal.am_bytes > 0))
    amps;
  (* sorted by kind, no duplicate rows *)
  let kinds = List.map (fun a -> a.Obs.Causal.am_kind) amps in
  Alcotest.(check (list string)) "sorted unique kinds"
    (List.sort_uniq compare kinds) kinds

let test_duplicates_tagged_under_dup_faults () =
  let fault =
    {
      (Fault.Plan.none) with
      Fault.Plan.seed = 3;
      dup_prob = 0.2;
      req_timeout = 1.0;
      max_backoff = 8.0;
    }
  in
  let o =
    obs_of
      (Shard.Shard_sim.run
         (small_spec ~fault (Core.Proto.Two_phase Core.Proto.Inter)))
  in
  let causal = Obs.Run.merged_causal o in
  let an = Obs.Causal.analyze causal in
  Alcotest.(check bool) "still well-formed" true
    (Obs.Causal.check_ok an.Obs.Causal.an_check);
  let dups =
    List.fold_left
      (fun n a -> n + a.Obs.Causal.am_dups)
      0
      (Obs.Causal.amplification causal)
  in
  Alcotest.(check bool) "duplicate copies carry dup > 0" true (dups > 0)

(* ------------------------------------------------------------------ *)
(* Export: flow-event JSON escaping and the .dag artifact              *)
(* ------------------------------------------------------------------ *)

(* Flow names come from message kinds; the exporter must escape them
   like any other JSON string, and the in-repo parser must decode the
   result back to the original. *)
let test_flow_json_escaping () =
  let weird = "we\"ird\\kind\nwith\tcontrol\x01chars" in
  let buf =
    record_causal (fun () ->
        let id =
          Obs.Sink.send ~time:1.0 ~tag:(tag ~kind:weird ()) ~bytes:10 ~pkts:1
            ~dup:0
        in
        Obs.Sink.recv ~time:2.0 id)
  in
  let flows = Array.map (fun e -> (0, e)) (Obs.Causal.entries buf) in
  let json = Obs.Export.perfetto ~flows [||] in
  (match Obs.Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flow JSON invalid: %s" e);
  Alcotest.(check bool) "flow start present" true
    (contains json "\"ph\":\"s\"");
  Alcotest.(check bool) "flow finish present" true
    (contains json "\"ph\":\"f\"");
  (* parse back and recover the unescaped kind on a causal-category flow *)
  match Obs.Export.parse_json json with
  | Error e -> Alcotest.failf "parse back failed: %s" e
  | Ok j ->
      let events =
        match Obs.Export.member "traceEvents" j with
        | Some (Obs.Export.Arr l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let is_weird_flow ev =
        match
          (Obs.Export.member "cat" ev, Obs.Export.member "name" ev)
        with
        | Some (Obs.Export.Str "causal"), Some (Obs.Export.Str n) -> n = weird
        | _ -> false
      in
      Alcotest.(check bool) "kind round-trips through the escaper" true
        (List.exists is_weird_flow events)

let test_dropped_copies_draw_no_arrow () =
  let buf =
    record_causal (fun () ->
        let id =
          Obs.Sink.send ~time:1.0 ~tag:(tag ~kind:"lost_req" ()) ~bytes:10
            ~pkts:1 ~dup:0
        in
        Obs.Sink.drop ~time:1.2 id)
  in
  let flows = Array.map (fun e -> (0, e)) (Obs.Causal.entries buf) in
  let json = Obs.Export.perfetto ~flows [||] in
  Alcotest.(check bool) "no flow start for a dropped copy" false
    (contains json "\"ph\":\"s\"")

let test_dag_text_format () =
  let o =
    obs_of
      (Shard.Shard_sim.run
         (small_spec (Core.Proto.Two_phase Core.Proto.Inter)))
  in
  let text = Obs.Export.dag_text (Obs.Run.merged_causal o) in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
        (contains text s))
    [ "root"; "send"; "recv"; "end"; "rep0"; "kind"; "retry" ]

(* ------------------------------------------------------------------ *)
(* Purity and j-invariance                                             *)
(* ------------------------------------------------------------------ *)

let test_causal_obs_is_pure () =
  (* enabling the causal recorder adds no events, holds or randomness:
     the result record is bit-identical to the dark run *)
  List.iter
    (fun (name, algo) ->
      let base = Shard.Shard_sim.run (small_spec ~obs:Obs.Config.off algo) in
      let instr = Shard.Shard_sim.run (small_spec algo) in
      Alcotest.(check bool)
        (name ^ " result bit-identical")
        true
        ({ instr with Core.Simulator.obs = None } = base))
    [ List.hd protocols; List.nth protocols 2 ];
  let base =
    Shard.Shard_sim.run
      (small_spec ~obs:Obs.Config.off ~n_shards:4
         (Core.Proto.Two_phase Core.Proto.Inter))
  in
  let instr =
    Shard.Shard_sim.run
      (small_spec ~n_shards:4 (Core.Proto.Two_phase Core.Proto.Inter))
  in
  Alcotest.(check bool) "sharded result bit-identical" true
    ({ instr with Core.Simulator.obs = None } = base)

let dag_artifact ~jobs (spec : Core.Simulator.spec) =
  let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:3 in
  Obs.Export.dag_text (Obs.Run.merged_causal (obs_of r))

let test_jobs_invariance_dag () =
  let spec =
    small_spec ~fault:(Fault.Plan.default ~seed:3)
      (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let d1 = dag_artifact ~jobs:1 spec and d4 = dag_artifact ~jobs:4 spec in
  Alcotest.(check bool) "dag text non-empty" true (String.length d1 > 0);
  Alcotest.(check string) "dag text identical at -j1 and -j4" d1 d4

let test_jobs_invariance_dag_sharded () =
  let spec =
    small_spec ~n_shards:4 (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let d1 = dag_artifact ~jobs:1 spec and d4 = dag_artifact ~jobs:4 spec in
  Alcotest.(check string) "sharded dag text identical" d1 d4

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "causal"
    [
      ( "record",
        [
          case "sink roundtrip" test_sink_roundtrip;
          case "no sink is a no-op" test_no_sink_is_noop;
          case "validation catches malformed records"
            test_analyze_catches_malformed;
        ] );
      qsuite "dag-props" [ qtest_dags_wellformed_under_faults ];
      ( "reconciliation",
        [
          case "chain sum matches spans, one shard"
            test_chain_reconciles_one_shard;
          case "chain sum matches spans, four shards"
            test_chain_reconciles_four_shards;
        ] );
      ( "amplification",
        [
          case "per-kind rows account every send"
            test_amplification_accounts_every_send;
          case "fault-injected duplicates tagged"
            test_duplicates_tagged_under_dup_faults;
        ] );
      ( "export",
        [
          case "flow names escape to valid JSON" test_flow_json_escaping;
          case "dropped copies draw no arrow"
            test_dropped_copies_draw_no_arrow;
          case "dag text format" test_dag_text_format;
        ] );
      ( "purity",
        [ case "causal obs leaves results bit-identical" test_causal_obs_is_pure ] );
      ( "jobs",
        [
          case "faulty dag identical at -j1 and -j4" test_jobs_invariance_dag;
          case "sharded dag identical" test_jobs_invariance_dag_sharded;
        ] );
    ]
