(* The repo benchmark.  See README.md in this directory.

   Usage:
     perf.exe --workload W --seed N --seconds S --trace 0|1 [--out F] [--perfetto F]
     perf.exe --seed N [--seconds S] [--trace 0|1] [--out F]   every workload,
                                            each in its own process
     perf.exe --compare PARENT CHANGE       the no-regression / gain rule
     perf.exe --smoke                       every workload at a tiny size

   A workload run prints every metric by name with its unit, then, as its
   last line, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones. *)

(* How much work one workload run does. *)
type depth = {
  scale : float;  (** commit-count (and population) multiplier *)
  seconds : float;  (** measuring time *)
  min_rounds : int;
  setup_reps : int;  (** at least this many set-up repetitions ... *)
  setup_s : float;  (** ... and more while they fit in this time *)
  replay_s : float;  (** time per layer replay *)
}

let depth seconds =
  {
    scale = 1.0;
    seconds;
    min_rounds = 3;
    setup_reps = 5;
    setup_s = 0.05 *. seconds;
    replay_s = 0.15;
  }

let smoke_depth =
  {
    scale = 0.02;
    seconds = 0.0;
    min_rounds = 1;
    setup_reps = 1;
    setup_s = 0.0;
    replay_s = 0.002;
  }

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

(* ------------------------------------------------------------------ *)
(* Metrics of one workload run                                         *)
(* ------------------------------------------------------------------ *)

(* Closed-loop throughput, live memory and set-up time, measured with
   tracing off. *)
let end_to_end (w : Workloads.t) cells d =
  let live_words = Measure.live_heap_pass cells in
  let setup =
    Measure.setup_pass cells ~min_reps:d.setup_reps ~seconds:d.setup_s
  in
  let rounds =
    Measure.timed_rounds w.Workloads.kind cells ~seconds:d.seconds
      ~min_rounds:d.min_rounds
  in
  Measure.audit_pass cells;
  [
    ("commits_per_s", Measure.commits_per_s rounds, "1/s");
    ( "live_heap_mb",
      live_words *. float_of_int (Sys.word_size / 8) /. 1e6,
      "MB" );
    ("setup_s", setup, "s");
  ]

(* Per-layer numbers: a few timed rounds for rates and allocation, one
   traced pass for counts, the observability-channel overheads on the
   first cell, and the layer replays. *)
let per_layer (w : Workloads.t) cells d =
  let rounds =
    Measure.timed_rounds w.Workloads.kind cells ~seconds:(0.4 *. d.seconds)
      ~min_rounds:1
  in
  let samples = List.concat rounds in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 samples in
  let cpu = sum (fun s -> s.Measure.cpu)
  and commits = sum (fun s -> float_of_int s.Measure.commits) in
  let per_commit f = sum f /. commits in
  let pass_s =
    Measure.sum_of_minima (List.map (List.map (fun s -> s.Measure.cpu)) rounds)
  in
  let tr = Measure.traced_pass cells in
  let first = List.hd cells in
  let overheads = Measure.obs_overheads first ~budget_s:(0.1 *. d.seconds) in
  let spec = first.Workloads.spec in
  let min_s = d.replay_s in
  let engine =
    Replay.engine ~min_s
      ~procs:spec.Core.Simulator.cfg.Core.Sys_params.n_clients
      ~holds_per_commit:(ratio tr.t_holds tr.t_commits)
      ~wakes_per_commit:(ratio tr.t_wakes tr.t_commits)
  in
  let next = Replay.workload_next ~min_s spec in
  let create = Replay.workload_create ~min_s spec in
  let post = Replay.net_post ~min_s spec ~kinds:tr.t_kinds in
  let lru = Replay.lru ~min_s spec in
  let log =
    Replay.log_force ~min_s spec
      ~commit_sizes:
        (Array.of_list (List.filteri (fun i _ -> i < 2000) tr.t_commit_sizes))
  in
  let locks = Replay.lock_table ~min_s spec in
  Measure.audit_pass cells;
  let kcommits = float_of_int tr.t_commits /. 1000.0 in
  [
    ("sim.events_per_s", sum (fun s -> float_of_int s.Measure.events) /. cpu, "1/s");
    ("sim.events_per_commit", ratio tr.t_events tr.t_commits, "count");
    ("sim.wakes_per_commit", ratio tr.t_wakes tr.t_commits, "count");
    ("sim.holds_per_commit", ratio tr.t_holds tr.t_commits, "count");
    ("sim.heap_hwm", float_of_int tr.t_heap_hwm, "count");
    ("sim.engine_ns_per_event", engine.Replay.ns, "ns");
    ("sim.engine_words_per_event", engine.Replay.words, "words");
    ("db.workload_next_ns", next.Replay.ns, "ns");
    ("db.workload_create_us", create.Replay.ns /. 1e3, "us");
    ("net.msgs_per_commit", ratio tr.t_msgs tr.t_commits, "count");
    ("net.bytes_per_commit", ratio tr.t_bytes tr.t_commits, "B");
    ("net.post_ns", post.Replay.ns, "ns");
    ("net.post_words", post.Replay.words, "words");
    ( "storage.hit_ratio",
      tr.t_hit_sum /. Float.max 1.0 (float_of_int tr.t_measured),
      "fraction" );
    ("storage.disk_reads_per_commit", ratio tr.t_disk_reads tr.t_commits, "count");
    ("storage.log_pages_per_commit", ratio tr.t_log_pages tr.t_measured, "count");
    ("storage.lru_op_ns", lru.Replay.ns, "ns");
    ("storage.log_force_ns", log.Replay.ns, "ns");
    ("cc.lock_waits_per_commit", ratio tr.t_lock_waits tr.t_commits, "count");
    ("cc.deadlocks_per_commit", ratio tr.t_deadlocks tr.t_commits, "count");
    ("cc.commit_ratio", ratio tr.t_measured tr.t_attempts, "fraction");
    ("cc.lock_op_ns", locks.Replay.ns, "ns");
    ("cc.lock_op_words", locks.Replay.words, "words");
    ("cc.history_check_ms_per_kcommit", tr.t_history_s *. 1e3 /. kcommits, "ms");
    ("core.words_per_commit", per_commit (fun r -> r.Measure.words), "words");
    ( "core.promoted_words_per_commit",
      per_commit (fun r -> r.Measure.promoted),
      "words" );
    ( "core.major_gcs_per_kcommit",
      1000.0 *. per_commit (fun r -> float_of_int r.Measure.major_gcs),
      "count" );
    ("core.callbacks_per_commit", ratio tr.t_callbacks tr.t_measured, "count");
    ("core.retries_per_commit", ratio tr.t_retries tr.t_measured, "count");
    ("shard.prepares_per_commit", ratio tr.t_prepares tr.t_measured, "count");
    ("shard.xshard_frac", ratio tr.t_xshard tr.t_measured, "fraction");
    ( "shard.outcome_queries_per_commit",
      ratio tr.t_outcome_queries tr.t_measured,
      "count" );
    ("fault.injected_per_commit", ratio tr.t_injected tr.t_measured, "count");
  ]
  @ List.map (fun (ch, r) -> ("obs.overhead." ^ ch, r, "ratio")) overheads
  @ [
      ("obs.records_per_commit", ratio tr.t_records tr.t_commits, "count");
      ("obs.dropped", float_of_int tr.t_dropped, "count");
      ("obs.analyze_ms_per_kcommit", tr.t_analyze_s *. 1e3 /. kcommits, "ms");
      ("obs.traced_pass_overhead", tr.t_cpu /. pass_s, "ratio");
    ]

let measure_workload (w : Workloads.t) ~seed ~trace d =
  Measure.reset ();
  let cells = w.Workloads.cells ~seed ~scale:d.scale in
  if trace then per_layer w cells d else end_to_end w cells d

(* ------------------------------------------------------------------ *)
(* The result line                                                     *)
(* ------------------------------------------------------------------ *)

let result_json metrics =
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then
        Measure.record name [ "metric is not finite" ])
    metrics;
  let failed = List.length !Measure.failures in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (failed = 0) !Measure.attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name
              (if Float.is_finite v then v else 0.0)
              unit_)
          metrics))

let report ~workload ~seed ~trace ~out ~perfetto metrics =
  Printf.printf "# %s seed=%d trace=%d ocaml=%s\n" workload seed
    (Bool.to_int trace) Sys.ocaml_version;
  List.iter
    (fun (name, v, unit_) -> Printf.printf "  %-36s %18.6f %s\n" name v unit_)
    metrics;
  let json = result_json metrics in
  List.iter (Printf.printf "FAIL %s\n") (List.rev !Measure.failures);
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 file (fun oc ->
          Printf.fprintf oc {|{"workload": "%s", "seed": %d, "trace": %d, "result": %s}|}
            workload seed (Bool.to_int trace) json;
          output_char oc '\n'))
    out;
  Option.iter (fun f -> Obs.Export.write_file f (Measure.perfetto_json ())) perfetto;
  print_endline json

(* ------------------------------------------------------------------ *)
(* Every workload, each in a fresh process                             *)
(* ------------------------------------------------------------------ *)

let run_all ~seed ~seconds ~trace ~out =
  let exe = Sys.executable_name in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let args =
          [ exe; "--workload"; w.Workloads.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; string_of_int (Bool.to_int trace) ]
          @ Option.fold ~none:[] ~some:(fun f -> [ "--out"; f ]) out
        in
        let ic = Unix.open_process_args_in exe (Array.of_list args) in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        let exited = Unix.close_process_in ic = Unix.WEXITED 0 in
        let correct =
          match Obs.Export.parse_json !last with
          | Ok j -> Obs.Export.member "correct" j = Some (Obs.Export.Bool true)
          | Error _ -> false
        in
        (w.Workloads.name, exited && correct, !last))
      Workloads.all
  in
  print_endline "\n# summary";
  List.iter
    (fun (name, ok, last) ->
      Printf.printf "%-16s %s %s\n" name (if ok then "ok  " else "FAIL") last)
    results;
  if not (List.for_all (fun (_, ok, _) -> ok) results) then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke test                                                          *)
(* ------------------------------------------------------------------ *)

(* Every workload at a tiny size in both modes: the result line must be
   valid JSON with exactly the contracted keys, every operation must
   pass, and the metrics must be exactly those BENCHMARK.json names. *)
let smoke ~bench_path =
  let bench = Benchfile.load bench_path in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt in
  let names = List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all in
  if bench.Benchfile.workloads <> names then
    fail "BENCHMARK.json lists workloads [%s], the benchmark runs [%s]"
      (String.concat ", " bench.Benchfile.workloads)
      (String.concat ", " names);
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun trace ->
          let t0 = Measure.now () in
          let metrics = measure_workload w ~seed:1 ~trace smoke_depth in
          let json = result_json metrics in
          let parsed =
            match Obs.Export.parse_json json with
            | Ok j -> j
            | Error e -> fail "%s: invalid JSON: %s" w.Workloads.name e
          in
          (match parsed with
          | Obs.Export.Obj kvs
            when List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ] -> ()
          | _ -> fail "%s: wrong result keys" w.Workloads.name);
          if Obs.Export.member "correct" parsed <> Some (Obs.Export.Bool true) then
            fail "%s: %s" w.Workloads.name (String.concat "; " !Measure.failures);
          let expected =
            if trace then bench.Benchfile.per_layer else bench.Benchfile.end_to_end
          in
          let got =
            match Obs.Export.member "metrics" parsed with
            | Some (Obs.Export.Obj kvs) ->
                List.map
                  (fun (n, m) ->
                    ( n,
                      match Obs.Export.member "unit" m with
                      | Some (Obs.Export.Str u) -> u
                      | _ -> "" ))
                  kvs
            | _ -> []
          in
          let want =
            List.map (fun (m : Benchfile.metric) -> (m.Benchfile.name, m.Benchfile.unit_)) expected
          in
          if List.sort compare got <> List.sort compare want then
            fail "%s --trace %d: metrics differ from BENCHMARK.json" w.Workloads.name
              (Bool.to_int trace);
          Printf.printf "smoke: %-16s trace=%d  %d metrics, %d operations ok, %.2fs\n%!"
            w.Workloads.name (Bool.to_int trace) (List.length got) !Measure.attempted
            (Measure.since t0))
        [ false; true ])
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15.0 in
  let trace = ref 0 and out = ref None and perfetto = ref None in
  let compare_mode = ref false and smoke_mode = ref false in
  let bench_path = ref "BENCHMARK.json" and files = ref [] in
  let speclist =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE append the result as a JSON line");
      ( "--perfetto",
        Arg.String (fun f -> perfetto := Some f),
        "FILE write the benchmark's own spans as Perfetto JSON" );
      ("--compare", Arg.Set compare_mode, " compare two --out files: PARENT CHANGE");
      ("--smoke", Arg.Set smoke_mode, " every workload at a tiny size");
      ( "--benchmark",
        Arg.Set_string bench_path,
        "FILE the benchmark description (default BENCHMARK.json)" );
    ]
  in
  Arg.parse speclist
    (fun f -> files := f :: !files)
    "perf.exe: the repo benchmark (see perfbench/README.md)";
  let usage msg =
    prerr_endline ("perf.exe: " ^ msg);
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  if !compare_mode then
    match List.rev !files with
    | [ parent; change ] ->
        Compare.run ~bench:(Benchfile.load !bench_path) parent change
    | _ -> usage "--compare takes two files: PARENT CHANGE"
  else if !files <> [] then usage "unexpected argument"
  else if !smoke_mode then smoke ~bench_path:!bench_path
  else if !seconds < 0.0 then usage "--seconds must be non-negative"
  else
    let trace = !trace = 1 in
    match !workload with
    | None -> run_all ~seed:!seed ~seconds:!seconds ~trace ~out:!out
    | Some name -> (
        match Workloads.find name with
        | None -> usage (Printf.sprintf "unknown workload %S" name)
        | Some w ->
            measure_workload w ~seed:!seed ~trace (depth !seconds)
            |> report ~workload:name ~seed:!seed ~trace ~out:!out
                 ~perfetto:!perfetto)
