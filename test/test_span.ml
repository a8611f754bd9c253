(* Tests for the transaction-span layer and the online metrics registry:
   histogram merge algebra (QCheck), quantile error bounds, span record
   self-validation, the critical-path latency decomposition (phase
   components must sum to end-to-end commit latency on every protocol at
   1 and 4 shards), well-formedness under faults, artifact j-invariance,
   and recorder-off purity. *)

let case name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let contains text s =
  let n = String.length text and m = String.length s in
  let rec go i = i + m <= n && (String.sub text i m = s || go (i + 1)) in
  m = 0 || go 0

module H = Obs.Metrics.Hist

(* ------------------------------------------------------------------ *)
(* Histogram: buckets and quantile bounds                              *)
(* ------------------------------------------------------------------ *)

let test_hist_basics () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  List.iter (H.record h) [ 0.001; 0.01; 0.1; 1.0; 10.0 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check (float 1e-12)) "sum" 11.111 (H.sum h);
  (* each value lands in the bucket whose bounds contain it *)
  List.iter
    (fun v ->
      let lo, hi = H.bucket_bounds (H.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "%g in [%g,%g)" v lo hi)
        true
        (lo <= v && v < hi))
    [ 0.001; 0.0123; 0.5; 1.0; 7.25; 123.0 ]

let test_hist_bucket_bounds_partition () =
  (* consecutive buckets tile: bucket i's upper bound is bucket i+1's
     lower bound, and widths are positive *)
  for i = 0 to H.n_buckets - 2 do
    let lo, hi = H.bucket_bounds i in
    let lo', _ = H.bucket_bounds (i + 1) in
    if not (hi > lo) then Alcotest.failf "bucket %d empty width" i;
    if hi <> lo' then Alcotest.failf "bucket %d/%d gap" i (i + 1)
  done

let pos_dur =
  (* durations spanning the interesting range: microseconds to kiloseconds *)
  QCheck.(
    map
      (fun (m, e) -> m *. (10. ** float_of_int e))
      (pair (float_range 1.0 9.999) (int_range (-6) 3)))

let qtest_hist_merge_assoc_comm =
  QCheck.Test.make ~name:"histogram merge is associative and commutative"
    ~count:200
    QCheck.(
      triple (small_list pos_dur) (small_list pos_dur) (small_list pos_dur))
    (fun (xs, ys, zs) ->
      let mk vs =
        let h = H.create () in
        List.iter (H.record h) vs;
        h
      in
      let a = mk xs and b = mk ys and c = mk zs in
      H.equal (H.merge (H.merge a b) c) (H.merge a (H.merge b c))
      && H.equal (H.merge a b) (H.merge b a)
      && H.count (H.merge a b) = List.length xs + List.length ys)

let qtest_hist_quantile_error_bound =
  QCheck.Test.make
    ~name:"quantile error is within one bucket width of the exact answer"
    ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 200) pos_dur) (float_range 0.0 1.0))
    (fun (vs, q) ->
      let h = H.create () in
      List.iter (H.record h) vs;
      let est = H.quantile h q in
      (* exact nearest-rank answer on the sorted sample *)
      let a = Array.of_list vs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let exact = a.(rank - 1) in
      let lo, hi = H.bucket_bounds (H.bucket_of exact) in
      (* the estimate is the upper bound of the exact answer's bucket *)
      est >= exact && est -. exact <= hi -. lo +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_ops () =
  let r = Obs.Metrics.create () in
  Alcotest.(check bool) "fresh is empty" true (Obs.Metrics.is_empty r);
  Obs.Metrics.incr r "reqs_total" 3;
  Obs.Metrics.incr r "reqs_total" 4;
  Obs.Metrics.set_gauge r "depth" 2.5;
  Obs.Metrics.observe r "lat" 0.125;
  Obs.Metrics.observe r "lat" 0.25;
  Alcotest.(check (option int)) "counter" (Some 7)
    (Obs.Metrics.counter_value r "reqs_total");
  Alcotest.(check (option (float 0.))) "gauge" (Some 2.5)
    (Obs.Metrics.gauge_value r "depth");
  (match Obs.Metrics.histogram r "lat" with
  | None -> Alcotest.fail "no histogram"
  | Some h -> Alcotest.(check int) "hist count" 2 (H.count h));
  Alcotest.(check (option int)) "missing counter" None
    (Obs.Metrics.counter_value r "nope")

let test_registry_merge_exact () =
  let mk n =
    let r = Obs.Metrics.create () in
    Obs.Metrics.incr r "c" n;
    Obs.Metrics.set_gauge r "g" (float_of_int n);
    Obs.Metrics.observe r "h" (float_of_int n /. 10.);
    r
  in
  let rs = [ mk 1; mk 2; mk 3 ] in
  let m = Obs.Metrics.merge rs in
  Alcotest.(check (option int)) "counters add" (Some 6)
    (Obs.Metrics.counter_value m "c");
  Alcotest.(check (option (float 0.))) "gauges max" (Some 3.0)
    (Obs.Metrics.gauge_value m "g");
  (match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "no merged hist"
  | Some h -> Alcotest.(check int) "hist counts add" 3 (H.count h));
  (* merge of singleton is identity on the integer state *)
  Alcotest.(check bool) "singleton merge equal" true
    (Obs.Metrics.equal (Obs.Metrics.merge [ mk 5 ]) (mk 5))

let test_openmetrics_text () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.incr r "ccsim_aborts_total{cause=\"deadlock\"}" 2;
  Obs.Metrics.set_gauge r "ccsim_shards" 4.0;
  Obs.Metrics.observe r "ccsim_commit_latency_seconds" 0.5;
  let text = Obs.Metrics.to_openmetrics r in
  let has s =
    Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
      (contains text s)
  in
  has "ccsim_aborts_total{cause=\"deadlock\"} 2";
  has "ccsim_shards 4";
  has "ccsim_commit_latency_seconds_count 1";
  has "ccsim_commit_latency_seconds_bucket";
  has "# EOF"

(* ------------------------------------------------------------------ *)
(* Span record: buffer + validation                                    *)
(* ------------------------------------------------------------------ *)

let sp_entries ops =
  (* build a record through the sink API *)
  let buf = Obs.Span.create () in
  Obs.Sink.with_ { Obs.Sink.none with Obs.Sink.spans = Some buf } (fun () ->
      List.iter (fun f -> f ()) ops);
  Obs.Span.entries buf

let test_span_sink_roundtrip () =
  let ids = ref [] in
  let es =
    sp_entries
      [
        (fun () ->
          let id =
            Obs.Sink.open_span ~time:1.0 ~track:(Obs.Span.Client 0)
              ~kind:Obs.Span.Xact ~parent:(-1) ~xid:(-1)
          in
          ids := [ id ]);
        (fun () ->
          Obs.Sink.close_span ~time:2.0 (List.hd !ids));
      ]
  in
  Alcotest.(check int) "two entries" 2 (Array.length es);
  let ck = Obs.Span.validate es in
  Alcotest.(check bool) "well-formed" true (Obs.Span.check_ok ck);
  Alcotest.(check int) "opened" 1 ck.Obs.Span.ck_opened;
  Alcotest.(check int) "closed" 1 ck.Obs.Span.ck_closed;
  Alcotest.(check int) "unclosed" 0 ck.Obs.Span.ck_unclosed

let test_span_no_sink_is_noop () =
  let id =
    Obs.Sink.open_span ~time:0.0 ~track:(Obs.Span.Client 1)
      ~kind:Obs.Span.Think ~parent:(-1) ~xid:0
  in
  Alcotest.(check int) "sentinel id" (-1) id;
  Obs.Sink.close_span ~time:1.0 id;
  Alcotest.(check bool) "inactive" false (Obs.Sink.spans_on ())

let mk_entry sp_time sp_seq sp_ev = { Obs.Span.sp_time; sp_seq; sp_ev }

let op ?(parent = -1) ?(xid = 0) ?(track = Obs.Span.Client 0)
    ?(kind = Obs.Span.Attempt) id =
  Obs.Span.Open { id; parent; track; kind; xid }

let cl ?(ok = true) id = Obs.Span.Close { id; ok }

let test_validate_catches_malformed () =
  let bad name es =
    let ck = Obs.Span.validate es in
    Alcotest.(check bool) (name ^ " flagged") false (Obs.Span.check_ok ck)
  in
  (* close without open *)
  bad "orphan close" [| mk_entry 1.0 0 (cl 7) |];
  (* double close *)
  bad "double close"
    [|
      mk_entry 1.0 0 (op 1); mk_entry 2.0 1 (cl 1); mk_entry 3.0 2 (cl 1);
    |];
  (* duplicate id open *)
  bad "duplicate open" [| mk_entry 1.0 0 (op 1); mk_entry 2.0 1 (op 1) |];
  (* timestamps must be non-decreasing *)
  bad "time regression"
    [| mk_entry 5.0 0 (op 1); mk_entry 4.0 1 (cl 1) |];
  (* child closing after its parent violates containment *)
  bad "parent containment"
    [|
      mk_entry 1.0 0 (op 1);
      mk_entry 1.5 1 (op ~parent:1 2);
      mk_entry 2.0 2 (cl 1);
      mk_entry 3.0 3 (cl 2);
    |];
  (* unknown parent *)
  bad "unknown parent" [| mk_entry 1.0 0 (op ~parent:42 1) |];
  (* unclosed spans alone are allowed (run may end mid-transaction) *)
  let ck = Obs.Span.validate [| mk_entry 1.0 0 (op 1) |] in
  Alcotest.(check bool) "unclosed ok" true (Obs.Span.check_ok ck);
  Alcotest.(check int) "unclosed counted" 1 ck.Obs.Span.ck_unclosed

let test_span_ring_drop_relaxes () =
  (* with dropped > 0 an orphan close is attributed to the ring, not an
     error *)
  let es = [| mk_entry 1.0 5 (cl 3) |] in
  Alcotest.(check bool) "strict flags" false
    (Obs.Span.check_ok (Obs.Span.validate es));
  Alcotest.(check bool) "relaxed passes" true
    (Obs.Span.check_ok (Obs.Span.validate ~dropped:10 es))

(* ------------------------------------------------------------------ *)
(* Critical path: synthetic reconciliation                             *)
(* ------------------------------------------------------------------ *)

let test_critical_path_synthetic () =
  (* one committed xact, leaf-tiled 0..10: think 0-4, cpu 4-5,
     fetch 5-9, cpu 9-10 *)
  let es =
    [|
      mk_entry 0.0 0 (op ~kind:Obs.Span.Xact ~xid:(-1) 1);
      mk_entry 0.0 1 (op ~kind:Obs.Span.Attempt ~parent:1 ~xid:7 2);
      mk_entry 0.0 2 (op ~kind:Obs.Span.Think ~parent:2 ~xid:7 3);
      mk_entry 4.0 3 (cl 3);
      mk_entry 4.0 4 (op ~kind:Obs.Span.Client_cpu ~parent:2 ~xid:7 4);
      mk_entry 5.0 5 (cl 4);
      mk_entry 5.0 6 (op ~kind:Obs.Span.Fetch_wait ~parent:2 ~xid:7 5);
      (* a server root span overlapping the fetch wait: aggregated, not
         added to the client phase sum *)
      mk_entry 5.5 7
        (op ~kind:Obs.Span.Disk_io ~track:(Obs.Span.Server 0) ~xid:7 13);
      mk_entry 8.0 8 (cl 13);
      mk_entry 9.0 9 (cl 5);
      mk_entry 9.0 10 (op ~kind:Obs.Span.Client_cpu ~parent:2 ~xid:7 6);
      mk_entry 10.0 11 (cl 6);
      mk_entry 10.0 12 (cl 2);
      mk_entry 10.0 13 (cl 1);
    |]
  in
  Alcotest.(check bool) "synthetic record well-formed" true
    (Obs.Span.check_ok (Obs.Span.validate es));
  let tagged = Array.map (fun e -> (0, e)) es in
  let cp = Obs.Critical_path.analyze tagged in
  Alcotest.(check int) "one xact" 1 cp.Obs.Critical_path.cp_xacts;
  Alcotest.(check (float 1e-12)) "end to end" 10.0
    cp.Obs.Critical_path.cp_end_to_end;
  Alcotest.(check (float 1e-12)) "phases sum" 10.0
    cp.Obs.Critical_path.cp_phase_sum;
  Alcotest.(check bool) "reconciles" true (Obs.Critical_path.reconciles cp);
  let leaf k =
    List.find (fun r -> r.Obs.Critical_path.r_kind = k)
      cp.Obs.Critical_path.cp_client
  in
  Alcotest.(check (float 1e-12)) "think" 4.0
    (leaf Obs.Span.Think).Obs.Critical_path.r_total;
  Alcotest.(check (float 1e-12)) "fetch" 4.0
    (leaf Obs.Span.Fetch_wait).Obs.Critical_path.r_total;
  Alcotest.(check (float 1e-12)) "cpu" 2.0
    (leaf Obs.Span.Client_cpu).Obs.Critical_path.r_total;
  (* server row shows up on shard 0, outside the additive sum *)
  (match cp.Obs.Critical_path.cp_server with
  | [ (0, rows) ] ->
      let d =
        List.find (fun r -> r.Obs.Critical_path.r_kind = Obs.Span.Disk_io) rows
      in
      Alcotest.(check (float 1e-12)) "disk overlap" 2.5
        d.Obs.Critical_path.r_total
  | _ -> Alcotest.fail "expected one server track")

let test_critical_path_excludes_crashed () =
  (* an Xact closed ok:false (crash) must not count as committed *)
  let es =
    [|
      mk_entry 0.0 0 (op ~kind:Obs.Span.Xact ~xid:(-1) 1);
      mk_entry 0.0 1 (op ~kind:Obs.Span.Attempt ~parent:1 ~xid:3 2);
      mk_entry 0.0 2 (op ~kind:Obs.Span.Think ~parent:2 ~xid:3 3);
      mk_entry 2.0 3 (cl ~ok:false 3);
      mk_entry 2.0 4 (cl ~ok:false 2);
      mk_entry 2.0 5 (cl ~ok:false 1);
    |]
  in
  let cp = Obs.Critical_path.analyze (Array.map (fun e -> (0, e)) es) in
  Alcotest.(check int) "no committed xacts" 0 cp.Obs.Critical_path.cp_xacts;
  Alcotest.(check int) "counted as open/crashed" 1
    cp.Obs.Critical_path.cp_open_xacts

(* ------------------------------------------------------------------ *)
(* End-to-end: spans + metrics from real runs                          *)
(* ------------------------------------------------------------------ *)

let small_spec ?(obs = Obs.Config.latency) ?(seed = 7) ?(n_shards = 1)
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

let protocols =
  [
    ("2pl-inter", Core.Proto.Two_phase Core.Proto.Inter);
    ("2pl-intra", Core.Proto.Two_phase Core.Proto.Intra);
    ("cert-inter", Core.Proto.Certification Core.Proto.Inter);
    ("cert-intra", Core.Proto.Certification Core.Proto.Intra);
    ("callback", Core.Proto.Callback);
    ("no-wait", Core.Proto.No_wait { notify = Some Core.Proto.Push });
  ]

let obs_of r =
  match r.Core.Simulator.obs with
  | None -> Alcotest.fail "no obs payload"
  | Some o -> o

let check_run name spec =
  let r = Shard.Shard_sim.run spec in
  let o = obs_of r in
  (* every replication's span record is self-consistent *)
  List.iter
    (fun rep ->
      let ck =
        Obs.Span.validate ~dropped:rep.Obs.Run.spans_dropped
          rep.Obs.Run.spans
      in
      if not (Obs.Span.check_ok ck) then
        Alcotest.failf "%s: invalid span record: %s" name
          (Format.asprintf "%a" Obs.Span.pp_check ck);
      Alcotest.(check bool)
        (name ^ " spans non-empty")
        true
        (Array.length rep.Obs.Run.spans > 0))
    o.Obs.Run.reps;
  (* phase components sum to end-to-end commit latency *)
  let cp = Obs.Critical_path.analyze (Obs.Run.merged_spans o) in
  Alcotest.(check bool) (name ^ " has committed xacts") true
    (cp.Obs.Critical_path.cp_xacts > 0);
  if not (Obs.Critical_path.reconciles cp) then
    Alcotest.failf "%s: phases do not reconcile: end-to-end %.9f phases %.9f"
      name cp.Obs.Critical_path.cp_end_to_end
      cp.Obs.Critical_path.cp_phase_sum;
  (* the commit-latency histogram counts exactly the committed Xact spans *)
  let m = Option.get (Obs.Run.merged_metrics o) in
  (match Obs.Metrics.histogram m "ccsim_commit_latency_seconds" with
  | None -> Alcotest.failf "%s: no commit-latency histogram" name
  | Some h ->
      Alcotest.(check int)
        (name ^ " histogram count = committed xacts")
        cp.Obs.Critical_path.cp_xacts (H.count h));
  (r, o, cp)

let test_reconciles_one_shard () =
  List.iter
    (fun (name, algo) -> ignore (check_run name (small_spec algo)))
    protocols

let test_reconciles_four_shards () =
  List.iter
    (fun (name, algo) ->
      let _, o, _ =
        check_run (name ^ "@4") (small_spec ~n_shards:4 algo)
      in
      (* sharded runs carry per-shard load counters and the topology gauge *)
      let m = Option.get (Obs.Run.merged_metrics o) in
      Alcotest.(check (option (float 0.)))
        (name ^ " shards gauge")
        (Some 4.0)
        (Obs.Metrics.gauge_value m "ccsim_shards");
      Alcotest.(check bool)
        (name ^ " shard msg counters")
        true
        (Obs.Metrics.counter_value m "ccsim_shard_msgs_total{shard=\"0\"}"
         <> None))
    [ List.nth protocols 0; List.nth protocols 4 ]

let test_2pc_metrics_present () =
  let _, o, _ =
    check_run "2pc-metrics"
      (small_spec ~n_shards:4 (Core.Proto.Two_phase Core.Proto.Inter))
  in
  let m = Option.get (Obs.Run.merged_metrics o) in
  (match Obs.Metrics.histogram m "ccsim_2pc_fanout" with
  | None -> Alcotest.fail "no fan-out histogram"
  | Some h -> Alcotest.(check bool) "fanout recorded" true (H.count h > 0));
  match Obs.Metrics.histogram m "ccsim_2pc_indoubt_seconds" with
  | None -> Alcotest.fail "no in-doubt histogram"
  | Some h -> Alcotest.(check bool) "indoubt recorded" true (H.count h > 0)

(* ------------------------------------------------------------------ *)
(* Well-formedness under faults                                        *)
(* ------------------------------------------------------------------ *)

let validate_all name o =
  List.iter
    (fun rep ->
      let ck =
        Obs.Span.validate ~dropped:rep.Obs.Run.spans_dropped
          rep.Obs.Run.spans
      in
      if not (Obs.Span.check_ok ck) then
        Alcotest.failf "%s: invalid span record under faults: %s" name
          (Format.asprintf "%a" Obs.Span.pp_check ck))
    o.Obs.Run.reps

let test_spans_survive_client_crashes () =
  let spec =
    small_spec ~seed:11 ~fault:(Fault.Plan.default ~seed:3)
      (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let r = Shard.Shard_sim.run spec in
  let o = obs_of r in
  validate_all "client crashes" o;
  (* crash-ended transactions are excluded from the committed population *)
  let cp = Obs.Critical_path.analyze (Obs.Run.merged_spans o) in
  Alcotest.(check bool) "still reconciles" true
    (Obs.Critical_path.reconciles cp);
  let m = Option.get (Obs.Run.merged_metrics o) in
  match Obs.Metrics.histogram m "ccsim_commit_latency_seconds" with
  | None -> Alcotest.fail "no latency histogram"
  | Some h ->
      Alcotest.(check int) "histogram still matches committed"
        cp.Obs.Critical_path.cp_xacts (H.count h)

let test_spans_survive_coordinator_amnesia () =
  let fault =
    {
      Fault.Plan.none with
      Fault.Plan.seed = 5;
      coord_crash_prob = 0.5;
      req_timeout = 1.0;
      max_backoff = 8.0;
    }
  in
  let spec =
    small_spec ~seed:11 ~n_shards:4 ~fault
      (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let r = Shard.Shard_sim.run spec in
  let o = obs_of r in
  validate_all "coordinator amnesia" o;
  let cp = Obs.Critical_path.analyze (Obs.Run.merged_spans o) in
  Alcotest.(check bool) "amnesia run reconciles" true
    (Obs.Critical_path.reconciles cp)

(* ------------------------------------------------------------------ *)
(* Purity and j-invariance                                             *)
(* ------------------------------------------------------------------ *)

let test_latency_obs_is_pure () =
  (* spans + metrics emission adds no engine events, no holds and no
     randomness: the full result record — [events] included — is
     identical to the dark run *)
  List.iter
    (fun (name, algo) ->
      let base = Shard.Shard_sim.run (small_spec ~obs:Obs.Config.off algo) in
      let instr = Shard.Shard_sim.run (small_spec algo) in
      Alcotest.(check bool)
        (name ^ " result bit-identical")
        true
        ({ instr with Core.Simulator.obs = None } = base))
    [ List.nth protocols 0; List.nth protocols 4 ];
  (* sharded too *)
  let base = Shard.Shard_sim.run (small_spec ~obs:Obs.Config.off ~n_shards:4
                         (Core.Proto.Two_phase Core.Proto.Inter)) in
  let instr = Shard.Shard_sim.run (small_spec ~n_shards:4
                          (Core.Proto.Two_phase Core.Proto.Inter)) in
  Alcotest.(check bool) "sharded result bit-identical" true
    ({ instr with Core.Simulator.obs = None } = base)

let artifacts ~jobs (spec : Core.Simulator.spec) =
  let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:3 in
  let o = obs_of r in
  let spans = Obs.Run.merged_spans o in
  ( Obs.Export.span_text spans,
    Obs.Metrics.to_openmetrics (Option.get (Obs.Run.merged_metrics o)),
    Obs.Export.perfetto ~spans (Obs.Run.merged_trace o) )

let test_jobs_invariance_spans () =
  let spec = small_spec (Core.Proto.Two_phase Core.Proto.Inter) in
  let s1, m1, p1 = artifacts ~jobs:1 spec in
  let s4, m4, p4 = artifacts ~jobs:4 spec in
  Alcotest.(check bool) "span text non-empty" true (String.length s1 > 0);
  Alcotest.(check string) "span text identical" s1 s4;
  Alcotest.(check string) "openmetrics identical" m1 m4;
  Alcotest.(check string) "perfetto identical" p1 p4

let test_jobs_invariance_spans_sharded () =
  let spec =
    small_spec ~n_shards:4 (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let s1, m1, _ = artifacts ~jobs:1 spec in
  let s4, m4, _ = artifacts ~jobs:4 spec in
  Alcotest.(check string) "sharded span text identical" s1 s4;
  Alcotest.(check string) "sharded openmetrics identical" m1 m4

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_perfetto_span_events () =
  let spec =
    {
      (small_spec ~n_shards:4 (Core.Proto.Two_phase Core.Proto.Inter)) with
      Core.Simulator.obs =
        Obs.Config.make ~trace:true ~spans:true ~metrics:true ();
    }
  in
  let r = Shard.Shard_sim.run spec in
  let o = obs_of r in
  let json = Obs.Export.perfetto ~spans:(Obs.Run.merged_spans o)
      (Obs.Run.merged_trace o) in
  (match Obs.Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "perfetto JSON invalid: %s" e);
  Alcotest.(check bool) "complete events present" true
    (contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "shard lane named" true (contains json "shard 1");
  Alcotest.(check bool) "xact spans named" true
    (contains json "\"name\":\"xact\"");
  Alcotest.(check bool) "2pc spans named" true
    (contains json "\"name\":\"2pc_prepare\"")

let test_chaos_repro_snapshot () =
  (* the chaos reproducer dump writes a span + metrics snapshot alongside
     the trace, and all three are well-formed *)
  let dir = Filename.temp_file "ccsim-chaos" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file = Filename.concat dir "repro.trace" in
  let sp =
    Experiments.Chaos.spec ~n_clients:4 ~n_shards:2 ~measured_commits:60
      ~fault:(Fault.Plan.default ~seed:3)
      (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let n_events, n_spans = Experiments.Chaos.write_repro_trace ~file sp in
  Alcotest.(check bool) "events written" true (n_events > 0);
  Alcotest.(check bool) "spans written" true (n_spans > 0);
  let read f =
    let ic = open_in_bin f in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let base = Filename.concat dir "repro" in
  Alcotest.(check bool) "trace file" true (String.length (read file) > 0);
  Alcotest.(check bool) "span snapshot" true
    (contains (read (base ^ ".spans")) "open");
  Alcotest.(check bool) "metrics snapshot" true
    (contains (read (base ^ ".metrics")) "ccsim_commit_latency_seconds");
  Alcotest.(check bool) "causal dag snapshot" true
    (contains (read (base ^ ".dag")) "send");
  List.iter Sys.remove
    [ file; base ^ ".spans"; base ^ ".metrics"; base ^ ".dag" ];
  Sys.rmdir dir

let test_span_text_format () =
  let spec = small_spec (Core.Proto.Two_phase Core.Proto.Inter) in
  let r = Shard.Shard_sim.run spec in
  let o = obs_of r in
  let text = Obs.Export.span_text (Obs.Run.merged_spans o) in
  Alcotest.(check bool) "open lines" true (contains text "open");
  Alcotest.(check bool) "close lines" true (contains text "close");
  Alcotest.(check bool) "rep tags" true (contains text "rep0")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "span"
    [
      ( "hist",
        [
          case "basics and bucket membership" test_hist_basics;
          case "bucket bounds tile the axis" test_hist_bucket_bounds_partition;
        ] );
      qsuite "hist-props"
        [ qtest_hist_merge_assoc_comm; qtest_hist_quantile_error_bound ];
      ( "registry",
        [
          case "counter/gauge/histogram ops" test_registry_ops;
          case "merge is exact" test_registry_merge_exact;
          case "openmetrics exposition" test_openmetrics_text;
        ] );
      ( "span-record",
        [
          case "sink roundtrip" test_span_sink_roundtrip;
          case "no sink is a no-op" test_span_no_sink_is_noop;
          case "validation catches malformed records"
            test_validate_catches_malformed;
          case "ring drops relax orphan checks" test_span_ring_drop_relaxes;
        ] );
      ( "critical-path",
        [
          case "synthetic decomposition" test_critical_path_synthetic;
          case "crashed xacts excluded" test_critical_path_excludes_crashed;
        ] );
      ( "reconciliation",
        [
          case "all protocols, one shard" test_reconciles_one_shard;
          case "protocols at four shards" test_reconciles_four_shards;
          case "2pc metrics recorded" test_2pc_metrics_present;
        ] );
      ( "faults",
        [
          case "client crashes keep records well-formed"
            test_spans_survive_client_crashes;
          case "coordinator amnesia keeps records well-formed"
            test_spans_survive_coordinator_amnesia;
        ] );
      ( "purity",
        [ case "latency obs leaves results bit-identical" test_latency_obs_is_pure ] );
      ( "jobs",
        [
          case "artifacts identical at -j1 and -j4" test_jobs_invariance_spans;
          case "sharded artifacts identical" test_jobs_invariance_spans_sharded;
        ] );
      ( "export",
        [
          case "perfetto duration events" test_perfetto_span_events;
          case "span text dump" test_span_text_format;
          case "chaos reproducer snapshot" test_chaos_repro_snapshot;
        ] );
    ]
