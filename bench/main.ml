(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections 4-5), and — with --json — writes a benchmark
   telemetry snapshot for `ccsim bench-diff`.

   Usage:
     dune exec bench/main.exe                 # all experiments, default depth
     dune exec bench/main.exe -- -e fig9      # one experiment (repeatable)
     dune exec bench/main.exe -- --quick      # faster, noisier
     dune exec bench/main.exe -- --reps 5     # replications + CI columns
     dune exec bench/main.exe -- --detail     # abort/hit/message columns
     dune exec bench/main.exe -- --csv f.csv  # machine-readable copy
     dune exec bench/main.exe -- --micro      # bechamel engine microbenches
     dune exec bench/main.exe -- --json b.json # telemetry snapshot
     dune exec bench/main.exe -- --list       # experiment ids *)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks of the simulation substrate                         *)
(* ------------------------------------------------------------------ *)

(* Kept as plain (name, thunk) pairs so the same workloads feed both the
   bechamel tables (--micro) and the telemetry snapshot (--json), which
   times them directly and attaches replication confidence intervals. *)

let micro_defs : (string * (unit -> unit)) list =
  [
    ( "engine: 10k hold events",
      fun () ->
        let eng = Sim.Engine.create () in
        Sim.Engine.spawn eng (fun () ->
            for _ = 1 to 10_000 do
              Sim.Engine.hold 1.0
            done);
        ignore (Sim.Engine.run eng ()) );
    ( "facility: 100 procs x 100 uses",
      fun () ->
        let eng = Sim.Engine.create () in
        let fac = Sim.Facility.create eng ~name:"f" () in
        for _ = 1 to 100 do
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 100 do
                Sim.Facility.use fac 1.0
              done)
        done;
        ignore (Sim.Engine.run eng ()) );
    ( "lock table: 10k request/release",
      fun () ->
        let lt = Cc.Lock_table.create () in
        for i = 1 to 10_000 do
          ignore
            (Cc.Lock_table.request lt ~page:(i mod 97) (i mod 7)
               (if i mod 3 = 0 then Cc.Lock_table.X else Cc.Lock_table.S)
               ~wake:(fun () -> ()));
          Cc.Lock_table.release lt ~page:(i mod 97) (i mod 7)
        done );
    ( "lru pool: 100k inserts cap 400",
      fun () ->
        let c = Storage.Lru_pool.create ~capacity:400 in
        for i = 1 to 100_000 do
          ignore (Storage.Lru_pool.insert c (i mod 2000) ~dirty:(i mod 5 = 0))
        done );
    ( "end-to-end: 10-client 2PL sim, 300 commits",
      fun () ->
        let cfg = Core.Sys_params.table5 ~n_clients:10 () in
        let xp =
          Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ()
        in
        let spec =
          Core.Simulator.default_spec ~seed:3 ~warmup_commits:50
            ~measured_commits:250 ~cfg ~xact_params:xp
            (Core.Proto.Two_phase Core.Proto.Inter)
        in
        ignore (Shard.Shard_sim.run spec) );
    (* same cell with the trace recorder on: the delta against the run
       above is the whole observability overhead *)
    ( "end-to-end: same sim, trace recorder on",
      fun () ->
        let cfg = Core.Sys_params.table5 ~n_clients:10 () in
        let xp =
          Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ()
        in
        let spec =
          Core.Simulator.default_spec ~seed:3 ~warmup_commits:50
            ~measured_commits:250 ~obs:Obs.Config.trace_only ~cfg
            ~xact_params:xp
            (Core.Proto.Two_phase Core.Proto.Inter)
        in
        ignore (Shard.Shard_sim.run spec) );
    ( "recorder: 1M typed events",
      fun () ->
        let r = Obs.Recorder.create () in
        for i = 1 to 1_000_000 do
          Obs.Recorder.add r ~time:(float_of_int i)
            (Obs.Event.Disk_read { page = i land 0xfff })
        done );
  ]

let micro_tests =
  let open Bechamel in
  List.map
    (fun (name, fn) -> Test.make ~name (Staged.stage fn))
    micro_defs

let micro_benchmarks () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              Printf.printf "  %-45s %14.0f ns/run\n%!" name est
          | Some [] | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    micro_tests

(* Direct timing for the telemetry snapshot: one warmup run, then [runs]
   timed runs; the median goes into the snapshot and the Student-t CI of
   the mean gives bench-diff its noise band. *)
let micro_runs = 5

let time_micro (name, fn) =
  fn ();
  let samples =
    Array.init micro_runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        fn ();
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let median = sorted.(Array.length sorted / 2) in
  let ci = Obs.Run_stats.mean_ci samples in
  let lo, hi =
    if Obs.Run_stats.available ci then
      (Obs.Run_stats.ci_lo ci, Obs.Run_stats.ci_hi ci)
    else (median, median)
  in
  {
    Experiments.Telemetry.m_name = name;
    m_runs = micro_runs;
    m_median_ns = median;
    m_ci_lo_ns = lo;
    m_ci_hi_ns = hi;
  }

(* A fixed profiled cell measuring raw engine speed and event-heap
   high-water mark, independent of which experiments were selected. *)
let engine_probe () =
  let cfg = Core.Sys_params.table5 ~n_clients:10 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 () in
  let spec =
    Core.Simulator.default_spec ~seed:3 ~warmup_commits:50
      ~measured_commits:250
      ~obs:(Obs.Config.make ~profile:true ())
      ~cfg ~xact_params:xp
      (Core.Proto.Two_phase Core.Proto.Inter)
  in
  let t0 = Unix.gettimeofday () in
  let r = Shard.Shard_sim.run spec in
  let wall = Unix.gettimeofday () -. t0 in
  let heap_hwm =
    match r.Core.Simulator.obs with
    | Some { Obs.Run.reps = rep :: _ } -> (
        match rep.Obs.Run.profile with
        | Some p -> p.Sim.Engine.pr_heap_hwm
        | None -> 0)
    | _ -> 0
  in
  {
    Experiments.Telemetry.p_wall_s = wall;
    p_events = r.Core.Simulator.events;
    p_heap_hwm = heap_hwm;
  }

(* Fixed-seed latency cells for the snapshot: one small run per protocol
   with spans + metrics on, quantiles read off the commit-latency
   histogram.  Simulated time, fully deterministic — bench-diff compares
   them with no noise band. *)
let latency_cells ~jobs () =
  let cells =
    [
      (Core.Proto.Two_phase Core.Proto.Inter, 1);
      (Core.Proto.Certification Core.Proto.Inter, 1);
      (Core.Proto.Callback, 1);
      (Core.Proto.No_wait { notify = Some Core.Proto.Push }, 1);
      (Core.Proto.Two_phase Core.Proto.Inter, 2);
      (Core.Proto.Callback, 2);
    ]
  in
  List.map
    (fun (algo, n_shards) ->
      let cfg = Core.Sys_params.table5 ~n_clients:8 () in
      let xp =
        Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ()
      in
      let spec =
        {
          (Core.Simulator.default_spec ~seed:3 ~warmup_commits:50
             ~measured_commits:300 ~obs:Obs.Config.latency ~cfg
             ~xact_params:xp algo)
          with
          Core.Simulator.n_shards;
        }
      in
      let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:1 in
      let h =
        match r.Core.Simulator.obs with
        | Some o -> (
            match Obs.Run.merged_metrics o with
            | Some m -> Obs.Metrics.histogram m "ccsim_commit_latency_seconds"
            | None -> None)
        | None -> None
      in
      match h with
      | Some h when Obs.Metrics.Hist.count h > 0 ->
          let n = Obs.Metrics.Hist.count h in
          {
            Experiments.Telemetry.l_algo = Core.Proto.algorithm_name algo;
            l_shards = n_shards;
            l_p50 = Obs.Metrics.Hist.quantile h 0.50;
            l_p95 = Obs.Metrics.Hist.quantile h 0.95;
            l_p99 = Obs.Metrics.Hist.quantile h 0.99;
            l_mean = Obs.Metrics.Hist.sum h /. float_of_int n;
            l_xacts = n;
          }
      | _ ->
          Printf.eprintf "bench: latency cell %s@%d produced no histogram\n"
            (Core.Proto.algorithm_name algo) n_shards;
          exit 1)
    cells

(* Fixed-seed message-amplification cells: one small run per protocol at
   1 and 4 shards with the causal message record on, msgs/pkts/bytes per
   committed transaction summed off the per-kind amplification table.
   Simulated counts, fully deterministic — bench-diff compares them with
   no noise band. *)
let causal_cells ~jobs () =
  let algos =
    [
      Core.Proto.Two_phase Core.Proto.Inter;
      Core.Proto.Certification Core.Proto.Inter;
      Core.Proto.Callback;
      Core.Proto.No_wait { notify = None };
      Core.Proto.No_wait { notify = Some Core.Proto.Push };
      Core.Proto.No_wait { notify = Some Core.Proto.Invalidate };
    ]
  in
  let cells =
    List.concat_map (fun algo -> [ (algo, 1); (algo, 4) ]) algos
  in
  List.map
    (fun (algo, n_shards) ->
      let cfg = Core.Sys_params.table5 ~n_clients:8 () in
      let xp =
        Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ()
      in
      let spec =
        {
          (Core.Simulator.default_spec ~seed:3 ~warmup_commits:50
             ~measured_commits:300 ~obs:Obs.Config.causal ~cfg
             ~xact_params:xp algo)
          with
          Core.Simulator.n_shards;
        }
      in
      let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:1 in
      let causal =
        match r.Core.Simulator.obs with
        | Some o -> Obs.Run.merged_causal o
        | None -> [||]
      in
      if Array.length causal = 0 then begin
        Printf.eprintf "bench: causal cell %s@%d produced no causal record\n"
          (Core.Proto.algorithm_name algo) n_shards;
        exit 1
      end;
      let an = Obs.Causal.analyze causal in
      let commits = an.Obs.Causal.an_check.Obs.Causal.ck_committed in
      if commits = 0 then begin
        Printf.eprintf "bench: causal cell %s@%d committed nothing\n"
          (Core.Proto.algorithm_name algo) n_shards;
        exit 1
      end;
      let msgs = ref 0 and pkts = ref 0 and bytes = ref 0 in
      List.iter
        (fun (a : Obs.Causal.amp) ->
          msgs := !msgs + a.Obs.Causal.am_msgs;
          pkts := !pkts + a.Obs.Causal.am_pkts;
          bytes := !bytes + a.Obs.Causal.am_bytes)
        (Obs.Causal.amplification causal);
      let per v = float_of_int v /. float_of_int commits in
      {
        Experiments.Telemetry.z_algo = Core.Proto.algorithm_name algo;
        z_shards = n_shards;
        z_msgs_per_commit = per !msgs;
        z_pkts_per_commit = per !pkts;
        z_bytes_per_commit = per !bytes;
        z_commits = commits;
      })
    cells

(* ------------------------------------------------------------------ *)
(* Experiment driver                                                   *)
(* ------------------------------------------------------------------ *)

let () =
  let experiments = ref [] in
  let quick = ref false in
  let detail = ref false in
  let micro = ref false in
  let csv = ref None in
  let plots = ref None in
  let json = ref None in
  let reps = ref None in
  let list_only = ref false in
  let jobs = ref (Sim.Pool.default_jobs ()) in
  let speclist =
    [
      ( "-e",
        Arg.String (fun s -> experiments := s :: !experiments),
        "ID run one experiment (repeatable); default: all" );
      ( "-j",
        Arg.Set_int jobs,
        "N worker domains for independent simulations (default: cores - 1); \
         results are identical for every value" );
      ("--quick", Arg.Set quick, " fewer commits per run (smoke-test depth)");
      ( "--reps",
        Arg.Int (fun n -> reps := Some n),
        "N replications per cell (default 1); at N >= 2 every figure cell \
         gains a 95% confidence interval" );
      ("--detail", Arg.Set detail, " print abort/hit/message columns");
      ("--micro", Arg.Set micro, " also run bechamel engine microbenchmarks");
      ( "--csv",
        Arg.String (fun s -> csv := Some s),
        "FILE also write every figure as CSV" );
      ( "--plots",
        Arg.String (fun s -> plots := Some s),
        "DIR also write gnuplot .dat/.gp files per figure" );
      ( "--json",
        Arg.String (fun s -> json := Some s),
        "FILE write a benchmark telemetry snapshot (wall-clock, engine \
         throughput, microbench medians, provenance) for ccsim bench-diff" );
      ("--list", Arg.Set list_only, " list experiment ids and exit");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe: regenerate the paper's tables and figures";
  if !list_only then begin
    List.iter
      (fun (id, descr, _) -> Printf.printf "%-14s %s\n" id descr)
      Experiments.Suite.all;
    Printf.printf "%-14s %s\n" "client-sweep"
      "scalability: engine events/s and heap vs client population (not \
       run by default)";
    exit 0
  end;
  let opts =
    let base =
      if !quick then Experiments.Exp_defs.quick_opts
      else Experiments.Exp_defs.default_opts
    in
    match !reps with
    | Some n when n >= 1 -> { base with Experiments.Exp_defs.reps = n }
    | Some n ->
        Printf.eprintf "bench: --reps must be >= 1 (got %d)\n" n;
        exit 1
    | None -> base
  in
  Printf.printf "%s\n%!"
    (Experiments.Report.repro_line ~seed:opts.Experiments.Exp_defs.seed
       ~jobs:!jobs);
  if opts.Experiments.Exp_defs.reps < 2 then
    Printf.printf
      "# note: reps=1 — replication confidence intervals unavailable (± \
       columns read n/a); rerun with --reps N>=2 for intervals\n%!";
  let runner = Experiments.Exp_defs.make_runner ~jobs:!jobs opts in
  (* client-sweep is not a Suite figure (it benchmarks the simulator, not
     the paper); recognize the id here and run it after the figures *)
  let sweep_requested = List.mem "client-sweep" !experiments in
  let figure_ids = List.filter (fun id -> id <> "client-sweep") !experiments in
  let selected =
    match figure_ids with
    | [] when sweep_requested -> []
    | [] -> Experiments.Suite.all
    | ids ->
        List.rev_map
          (fun id ->
            match Experiments.Suite.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (try --list)\n" id;
                exit 1)
          ids
  in
  let csv_buf = Buffer.create 4096 in
  let telemetry = ref [] in
  let shard_cells = ref [] in
  let t0 = Sys.time () in
  List.iter
    (fun (id, descr, build) ->
      Format.printf "@.###### %s — %s@." id descr;
      let sims_before = Experiments.Exp_defs.runs_executed runner in
      let wall0 = Unix.gettimeofday () in
      let out = Experiments.Exp_defs.run_build runner build in
      let wall = Unix.gettimeofday () -. wall0 in
      Experiments.Report.print_output ~detail:!detail Format.std_formatter out;
      let events = ref 0 in
      (* the shard sweep's throughput figure doubles as telemetry: its
         cells are deterministic, so bench-diff treats drift as semantic *)
      (match out with
      | Experiments.Suite.Figures (fig :: _) when id = "shard-sweep" ->
          shard_cells :=
            List.concat_map
              (fun (s : Experiments.Exp_defs.series) ->
                List.map
                  (fun (x, (r : Core.Simulator.result)) ->
                    {
                      Experiments.Telemetry.h_shards = int_of_float x;
                      h_pattern = s.Experiments.Exp_defs.label;
                      h_throughput = r.Core.Simulator.throughput;
                      h_xshard_commits = r.Core.Simulator.xshard_commits;
                      h_prepares = r.Core.Simulator.prepares;
                    })
                  s.Experiments.Exp_defs.points)
              fig.Experiments.Exp_defs.series
      | _ -> ());
      (match out with
      | Experiments.Suite.Figures figs ->
          List.iter
            (fun f ->
              List.iter
                (fun s ->
                  List.iter
                    (fun (_, r) -> events := !events + r.Core.Simulator.events)
                    s.Experiments.Exp_defs.points)
                f.Experiments.Exp_defs.series;
              List.iter
                (fun line ->
                  Buffer.add_string csv_buf line;
                  Buffer.add_char csv_buf '\n')
                (Experiments.Report.figure_csv f);
              match !plots with
              | Some dir -> ignore (Experiments.Report.write_gnuplot ~dir f)
              | None -> ())
            figs
      | Experiments.Suite.Map _ -> ());
      telemetry :=
        {
          Experiments.Telemetry.e_id = id;
          e_wall_s = wall;
          e_sims = Experiments.Exp_defs.runs_executed runner - sims_before;
          e_events = !events;
        }
        :: !telemetry;
      Format.printf "@?")
    selected;
  let sweep_cells =
    if not sweep_requested then []
    else begin
      Format.printf "@.###### client-sweep — simulator scalability vs \
                     population@.";
      let cells =
        Experiments.Client_sweep.run ~quick:!quick
          ~seed:opts.Experiments.Exp_defs.seed ()
      in
      Experiments.Client_sweep.print Format.std_formatter cells;
      List.iter
        (fun line ->
          Buffer.add_string csv_buf line;
          Buffer.add_char csv_buf '\n')
        (Experiments.Client_sweep.csv cells);
      Format.printf "@?";
      cells
    end
  in
  (match !csv with
  | Some file ->
      let oc = open_out file in
      output_string oc (Buffer.contents csv_buf);
      close_out oc;
      Printf.printf "\ncsv written to %s\n" file
  | None -> ());
  Printf.printf "\n%d simulations executed in %.1fs cpu time\n"
    (Experiments.Exp_defs.runs_executed runner)
    (Sys.time () -. t0);
  (match !json with
  | Some file ->
      Printf.printf "\ntiming %d microbenches (%d runs each) for %s...\n%!"
        (List.length micro_defs) micro_runs file;
      let latency = latency_cells ~jobs:!jobs () in
      let causal = causal_cells ~jobs:!jobs () in
      let snapshot =
        {
          Experiments.Telemetry.s_schema =
            Experiments.Telemetry.schema_version;
          s_repro =
            Experiments.Report.repro_line
              ~seed:opts.Experiments.Exp_defs.seed ~jobs:!jobs;
          s_git = Experiments.Report.git_describe ();
          s_ocaml = Sys.ocaml_version;
          s_host = Experiments.Report.hostname ();
          s_seed = opts.Experiments.Exp_defs.seed;
          s_jobs = !jobs;
          s_reps = opts.Experiments.Exp_defs.reps;
          s_quick = !quick;
          s_experiments = List.rev !telemetry;
          s_micro = List.map time_micro micro_defs;
          s_sweep =
            List.map
              (fun (c : Experiments.Client_sweep.cell) ->
                {
                  Experiments.Telemetry.w_clients = c.sw_clients;
                  w_algo = c.sw_algo;
                  w_events = c.sw_events;
                  w_wall_s = c.sw_wall_s;
                  w_heap_hwm = c.sw_heap_hwm;
                  w_live_words_per_client = Some c.sw_live_words_per_client;
                })
              sweep_cells;
          s_shard = !shard_cells;
          s_latency = latency;
          s_causal = causal;
          s_engine = Some (engine_probe ());
        }
      in
      let text = Experiments.Telemetry.to_json snapshot in
      (* every snapshot must satisfy the in-repo RFC 8259 validator *)
      (match Obs.Export.validate_json text with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "bench: emitted snapshot is invalid JSON: %s\n" e;
          exit 1);
      Obs.Export.write_file file text;
      Printf.printf "telemetry snapshot written to %s\n" file
  | None -> ());
  if !micro then begin
    Printf.printf "\n###### bechamel microbenchmarks\n%!";
    micro_benchmarks ()
  end
