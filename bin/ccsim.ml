(* ccsim: command-line front end to the client/server DBMS cache
   consistency simulator.

     ccsim run --algo callback --clients 30 --loc 0.5 --pw 0.2
     ccsim run --algo no-wait-notify --platform fast-net --large
     ccsim exp fig9 --detail
     ccsim exp all --quick --csv results.csv --plots plots/
     ccsim list *)

open Cmdliner

let algo_conv =
  let parse = function
    | "2pl" -> Ok (Core.Proto.Two_phase Core.Proto.Inter)
    | "2pl-intra" -> Ok (Core.Proto.Two_phase Core.Proto.Intra)
    | "cert" -> Ok (Core.Proto.Certification Core.Proto.Inter)
    | "cert-intra" -> Ok (Core.Proto.Certification Core.Proto.Intra)
    | "callback" -> Ok Core.Proto.Callback
    | "no-wait" -> Ok (Core.Proto.No_wait { notify = None })
    | "no-wait-notify" -> Ok (Core.Proto.No_wait { notify = Some Core.Proto.Push })
    | "no-wait-inval" ->
        Ok (Core.Proto.No_wait { notify = Some Core.Proto.Invalidate })
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print fmt a = Format.pp_print_string fmt (Core.Proto.algorithm_name a) in
  Arg.conv (parse, print)

let platform_conv =
  let parse = function
    | ("table5" | "fast-server" | "fast-net") as s -> Ok s
    | s -> Error (`Msg (Printf.sprintf "unknown platform %S" s))
  in
  Arg.conv (parse, Format.pp_print_string)

(* Counts on the command line (clients, shards, seeds, replications, ring
   capacity) are rejected with a usage error before anything runs. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt int (Sim.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulations (default: cores - 1). \
           Results are identical for every value; only wall-clock changes.")

(* ------------------------------------------------------------------ *)
(* shared workload-cell arguments (run / trace / stats)                *)
(* ------------------------------------------------------------------ *)

type cell = {
  cell_algo : Core.Proto.algorithm;
  cell_clients : int;
  cell_loc : float;
  cell_pw : float;
  cell_platform : string;
  cell_large : bool;
  cell_interactive : bool;
  cell_commits : int;
  cell_warmup : int;
  cell_seed : int;
  cell_reps : int;
}

let cell_term ?(commits_default = 2000) () =
  let algo =
    Arg.(
      value
      & opt algo_conv (Core.Proto.Two_phase Core.Proto.Inter)
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:
            "Consistency algorithm: 2pl, 2pl-intra, cert, cert-intra, \
             callback, no-wait, no-wait-notify, no-wait-inval.")
  in
  let clients =
    Arg.(
      value & opt pos_int 10
      & info [ "c"; "clients" ] ~docv:"N" ~doc:"Client count.")
  in
  let loc =
    Arg.(
      value & opt float 0.25
      & info [ "loc" ] ~docv:"P" ~doc:"Inter-transaction locality (InterXactLoc).")
  in
  let pw =
    Arg.(
      value & opt float 0.2
      & info [ "pw" ] ~docv:"P" ~doc:"Per-atom write probability (ProbWrite).")
  in
  let platform =
    Arg.(
      value & opt platform_conv "table5"
      & info [ "platform" ] ~docv:"P"
          ~doc:"System preset: table5, fast-server, or fast-net.")
  in
  let large =
    Arg.(value & flag & info [ "large" ] ~doc:"Large transactions (20-60 reads).")
  in
  let interactive =
    Arg.(
      value & flag
      & info [ "interactive" ] ~doc:"Interactive think times (5 s / 2 s).")
  in
  let commits =
    Arg.(
      value & opt int commits_default
      & info [ "commits" ] ~docv:"N" ~doc:"Measured committed transactions.")
  in
  let warmup =
    Arg.(value & opt int 300 & info [ "warmup" ] ~docv:"N" ~doc:"Warmup commits.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let reps =
    Arg.(
      value & opt pos_int 1
      & info [ "reps" ] ~docv:"N" ~doc:"Replications to average.")
  in
  let make cell_algo cell_clients cell_loc cell_pw cell_platform cell_large
      cell_interactive cell_commits cell_warmup cell_seed cell_reps =
    {
      cell_algo;
      cell_clients;
      cell_loc;
      cell_pw;
      cell_platform;
      cell_large;
      cell_interactive;
      cell_commits;
      cell_warmup;
      cell_seed;
      cell_reps;
    }
  in
  Term.(
    const make $ algo $ clients $ loc $ pw $ platform $ large $ interactive
    $ commits $ warmup $ seed $ reps)

let cell_spec ?(obs = Obs.Config.off) c =
  if c.cell_loc < 0.0 || c.cell_loc > 1.0 || c.cell_pw < 0.0 || c.cell_pw > 1.0
  then begin
    Printf.eprintf "ccsim: --loc and --pw must lie in [0, 1]\n";
    exit 1
  end;
  let cfg =
    match c.cell_platform with
    | "fast-server" -> Core.Sys_params.fast_server ~n_clients:c.cell_clients ()
    | "fast-net" ->
        Core.Sys_params.fast_server_fast_net ~n_clients:c.cell_clients ()
    | _ -> Core.Sys_params.table5 ~n_clients:c.cell_clients ()
  in
  let xp =
    if c.cell_interactive then
      Db.Xact_params.interactive ~prob_write:c.cell_pw
        ~inter_xact_loc:c.cell_loc ()
    else if c.cell_large then
      Db.Xact_params.large_batch ~prob_write:c.cell_pw
        ~inter_xact_loc:c.cell_loc ()
    else
      Db.Xact_params.short_batch ~prob_write:c.cell_pw
        ~inter_xact_loc:c.cell_loc ()
  in
  Core.Simulator.default_spec ~seed:c.cell_seed ~warmup_commits:c.cell_warmup
    ~measured_commits:c.cell_commits ~obs ~cfg ~xact_params:xp c.cell_algo

(* ------------------------------------------------------------------ *)
(* ccsim run                                                           *)
(* ------------------------------------------------------------------ *)

let stop_name = function
  | Core.Simulator.Target_reached -> "target reached"
  | Time_limit -> "time limit"
  | Heap_drained -> "heap drained"

let run_cmd =
  let run cell jobs =
    let spec = cell_spec cell in
    let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:cell.cell_reps in
    Format.printf "%a@." Core.Simulator.pp_result r;
    Format.printf
      "  responses: mean %.3fs p50 %.3fs p95 %.3fs stddev %.3fs | window \
       %.1fs sim / %d events | pushes %d callbacks %d log util %.2f client \
       cpu %.2f@."
      r.Core.Simulator.mean_response r.Core.Simulator.response_p50
      r.Core.Simulator.response_p95 r.Core.Simulator.response_stddev
      r.Core.Simulator.window r.Core.Simulator.events
      r.Core.Simulator.pushes_sent r.Core.Simulator.callbacks_sent
      r.Core.Simulator.log_disk_util r.Core.Simulator.client_cpu_util;
    let ci_r = Obs.Run_stats.mean_ci r.Core.Simulator.rep_mean_responses in
    let ci_t = Obs.Run_stats.mean_ci r.Core.Simulator.rep_throughputs in
    if Obs.Run_stats.available ci_r then
      Format.printf
        "  95%% CI over %d replications: response ±%ss, throughput ±%s/s@."
        ci_r.Obs.Run_stats.ci_n
        (Obs.Run_stats.half_string ci_r)
        (Obs.Run_stats.half_string ~digits:2 ci_t)
    else
      Format.printf
        "  95%% CI: ±n/a — single replication has no dispersion; rerun with \
         --reps N>=2@.";
    (* a run that stops before its commit target must not pass for one
       that reached it: its numbers describe a wedged or truncated run *)
    if r.Core.Simulator.stop <> Core.Simulator.Target_reached then begin
      Printf.eprintf "ccsim: ended short: %d of %d commits (%s)\n"
        r.Core.Simulator.commits
        (cell.cell_commits * cell.cell_reps)
        (stop_name r.Core.Simulator.stop);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulation and print its metrics.")
    Term.(const run $ cell_term () $ jobs_arg)

(* Each channel's ring drops its oldest entries past the limit; if that
   happened the record the user is looking at is TRUNCATED, which must be
   shouted, not buried in a struct field.  One line per wrapped channel,
   printed to both streams so it is visible in piped and interactive use
   alike.  [hint] names the option that raises the limit, where there
   is one. *)
let warn_if_ring_wrapped ?(hint = "") (o : Obs.Run.t) =
  List.iter
    (fun (channel, dropped) ->
      Format.printf
        "WARNING: %s ring wrapped — %d oldest entries were dropped; only the \
         tail survives%s@."
        channel dropped hint;
      Printf.eprintf
        "ccsim: WARNING: %s ring wrapped — %d oldest entries dropped%s\n%!"
        channel dropped hint)
    (Obs.Run.wrapped o)

(* ------------------------------------------------------------------ *)
(* ccsim trace                                                         *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let perfetto_file =
    Arg.(
      value & opt string "trace.json"
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write Chrome/Perfetto trace_event JSON here (open at \
             ui.perfetto.dev or chrome://tracing).")
  in
  let text_file =
    Arg.(
      value & opt (some string) None
      & info [ "text" ] ~docv:"FILE"
          ~doc:"Also write the merged trace as plain text.")
  in
  let events =
    Arg.(
      value & opt int 25
      & info [ "events" ] ~docv:"N" ~doc:"Print the first N merged events.")
  in
  let limit =
    Arg.(
      value & opt pos_int Obs.Ring.default_limit
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Ring capacity per replication (trace and, with $(b,--spans), \
             spans); past it the oldest entries are dropped.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-validate artifacts: the merged trace must be non-empty, \
             the emitted JSON must parse, and (with $(b,--spans)) every \
             span record must be well-formed: balanced open/close, \
             monotone timestamps, parent containment.")
  in
  let spans_flag =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:
            "Also record transaction spans and export them as duration \
             events in the Perfetto JSON (client phases on the client \
             lanes, server phases on one lane per shard).")
  in
  let run cell perfetto_file text_file events limit check spans jobs =
    let obs = Obs.Config.make ~trace:true ~spans ~limit () in
    let spec = cell_spec ~obs cell in
    let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:cell.cell_reps in
    match r.Core.Simulator.obs with
    | None ->
        Printf.eprintf "ccsim: run returned no observability payload\n";
        exit 1
    | Some o ->
        let merged = Obs.Run.merged_trace o in
        let span_entries =
          if spans then Obs.Run.merged_spans o else [||]
        in
        Format.printf "%a@." Core.Simulator.pp_result r;
        Format.printf "@.%a@." Obs.Analysis.pp_summary
          (Obs.Analysis.summarize_tagged merged);
        let n = min events (Array.length merged) in
        if n > 0 then begin
          Format.printf "@.first %d of %d merged events:@." n
            (Array.length merged);
          Array.iter
            (fun (rep, e) ->
              Format.printf "  rep%d %12.6f  %s@." rep e.Obs.Recorder.time
                (Obs.Event.to_string e.Obs.Recorder.ev))
            (Array.sub merged 0 n)
        end;
        warn_if_ring_wrapped ~hint:" (raise --limit)" o;
        let json = Obs.Export.perfetto ~spans:span_entries merged in
        Obs.Export.write_file perfetto_file json;
        Format.printf "@.perfetto trace (%d events%s) written to %s@."
          (Array.length merged)
          (if spans then
             Printf.sprintf " + %d span records" (Array.length span_entries)
           else "")
          perfetto_file;
        (match text_file with
        | Some f ->
            Obs.Export.write_file f (Obs.Export.trace_text merged);
            Format.printf "text trace written to %s@." f
        | None -> ());
        if check then begin
          if Array.length merged = 0 then begin
            Printf.eprintf "ccsim: check failed: merged trace is empty\n";
            exit 1
          end;
          (match Obs.Export.validate_json json with
          | Ok () -> Format.printf "check: perfetto JSON parses ok@."
          | Error e ->
              Printf.eprintf "ccsim: check failed: invalid JSON: %s\n" e;
              exit 1);
          if spans then
            List.iter
              (fun rep ->
                let ck =
                  Obs.Span.validate ~dropped:rep.Obs.Run.spans_dropped
                    rep.Obs.Run.spans
                in
                if not (Obs.Span.check_ok ck) then begin
                  Format.eprintf
                    "ccsim: check failed: invalid span record:@.%a@."
                    Obs.Span.pp_check ck;
                  exit 1
                end)
              o.Obs.Run.reps;
          if spans then
            Format.printf "check: %d span records well-formed@."
              (Array.length span_entries)
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced simulation and report per-protocol breakdowns \
          (messages per commit by kind, lock-wait histogram, notification \
          fan-out, abort timeline); export the merged trace as \
          Chrome/Perfetto JSON.  Tracing works at any $(b,-j): each \
          replication records in its own domain and the merged trace is \
          identical for every job count.")
    Term.(
      const run $ cell_term ~commits_default:500 () $ perfetto_file
      $ text_file $ events $ limit $ check $ spans_flag $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim stats                                                         *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let series_file =
    Arg.(
      value & opt string "series.csv"
      & info [ "series" ] ~docv:"FILE"
          ~doc:
            "Write the sampled time series as CSV (replication k > 0 goes \
             to FILE.repk).")
  in
  let interval =
    Arg.(
      value & opt float 5.0
      & info [ "interval" ] ~docv:"S"
          ~doc:"Sampling interval in simulated seconds.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Self-validate: every emitted CSV must round-trip exactly.")
  in
  let run cell series_file interval check jobs =
    if interval <= 0.0 then begin
      Printf.eprintf "ccsim: --interval must be positive\n";
      exit 1
    end;
    let obs =
      Obs.Config.make ~series:true ~sample_interval:interval ~profile:true ()
    in
    let spec = cell_spec ~obs cell in
    let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:cell.cell_reps in
    Format.printf "%a@." Core.Simulator.pp_result r;
    match r.Core.Simulator.obs with
    | None ->
        Printf.eprintf "ccsim: run returned no observability payload\n";
        exit 1
    | Some o ->
        let first = List.hd o.Obs.Run.reps in
        Format.printf "@.facilities (seed %d):@." first.Obs.Run.rep_seed;
        List.iter
          (fun f -> Format.printf "  %a@." Obs.Run.pp_fac_snapshot f)
          first.Obs.Run.facilities;
        (match first.Obs.Run.profile with
        | Some p ->
            Format.printf
              "@.engine: %d events, %d processes, %d holds, %d wakes, \
               event-heap high-water %d, live-process high-water %d@."
              p.Sim.Engine.pr_events p.Sim.Engine.pr_spawned
              p.Sim.Engine.pr_holds p.Sim.Engine.pr_wakes
              p.Sim.Engine.pr_heap_hwm p.Sim.Engine.pr_live_hwm;
            let top = 12 in
            Format.printf "  %-24s %10s %10s %14s@." "process" "events"
              "holds" "hold-time (s)";
            List.iteri
              (fun i pp ->
                if i < top then
                  Format.printf "  %-24s %10d %10d %14.3f@."
                    pp.Sim.Engine.pp_name pp.Sim.Engine.pp_runs
                    pp.Sim.Engine.pp_holds pp.Sim.Engine.pp_hold_time)
              p.Sim.Engine.pr_per_process
        | None -> ());
        warn_if_ring_wrapped o;
        (match first.Obs.Run.series with
        | Some s when Obs.Series.length s > 0 ->
            let names = Obs.Series.names s in
            let rows = Obs.Series.rows s in
            let times = Obs.Series.times s in
            (* the measurement window is the last [window] simulated
               seconds; everything before it is warmup *)
            let warmup_end =
              Float.max 0.0
                (r.Core.Simulator.sim_time -. r.Core.Simulator.window)
            in
            Format.printf "@.series (%d samples every %gs):@."
              (Obs.Series.length s) (Obs.Series.interval s);
            Format.printf "  %-18s %12s %12s %12s %22s@." "column" "min"
              "mean" "max" "batch-means 95% CI";
            Array.iteri
              (fun j name ->
                let lo = ref infinity and hi = ref neg_infinity in
                let sum = ref 0.0 in
                Array.iter
                  (fun row ->
                    let v = row.(j) in
                    if v < !lo then lo := v;
                    if v > !hi then hi := v;
                    sum := !sum +. v)
                  rows;
                (* batch-means interval from the post-warmup samples of
                   this single long run: the per-column analogue of a
                   replication CI when there is only one replication *)
                let post =
                  let acc = ref [] in
                  Array.iteri
                    (fun i row ->
                      if times.(i) >= warmup_end then acc := row.(j) :: !acc)
                    rows;
                  Array.of_list (List.rev !acc)
                in
                let bm =
                  match Obs.Run_stats.batch_means post with
                  | Some ci when Obs.Run_stats.available ci ->
                      Printf.sprintf "%.4f ±%s" ci.Obs.Run_stats.ci_mean
                        (Obs.Run_stats.half_string ~digits:4 ci)
                  | _ -> "±n/a"
                in
                Format.printf "  %-18s %12.4f %12.4f %12.4f %22s@." name !lo
                  (!sum /. float_of_int (Array.length rows))
                  !hi bm)
              names;
            (* Welch warmup adequacy: average each column across the
               replications (classic Welch smoothing input), smooth, and
               ask whether the curve had settled into its steady-state
               band before the measurement window opened *)
            let rep_series =
              List.filter_map (fun rp -> rp.Obs.Run.series) o.Obs.Run.reps
            in
            Format.printf
              "@.warmup adequacy (Welch, 5%% band; measurement opened at \
               t=%.1fs):@."
              warmup_end;
            Format.printf "  %-18s %14s %s@." "column" "settles at" "verdict";
            Array.iteri
              (fun j name ->
                let arrays =
                  List.map
                    (fun sr ->
                      Array.map (fun row -> row.(j)) (Obs.Series.rows sr))
                    rep_series
                in
                let len =
                  List.fold_left
                    (fun m a -> min m (Array.length a))
                    (Array.length rows) arrays
                in
                let avg =
                  Array.init len (fun i ->
                      List.fold_left (fun acc a -> acc +. a.(i)) 0.0 arrays
                      /. float_of_int (List.length arrays))
                in
                let wu =
                  Obs.Run_stats.warmup_diagnostic ~warmup_end
                    ~times:(Array.sub times 0 len) avg
                in
                let settle, verdict =
                  match wu.Obs.Run_stats.wu_settle with
                  | _ when wu.Obs.Run_stats.wu_samples < 4 ->
                      ("-", "n/a (too few samples)")
                  | Some t when wu.Obs.Run_stats.wu_adequate ->
                      (Printf.sprintf "%.1fs" t, "ok")
                  | Some t ->
                      ( Printf.sprintf "%.1fs" t,
                        "LATE — curve still drifting; extend --warmup" )
                  | None -> ("-", "never settles in this run")
                in
                Format.printf "  %-18s %14s %s@." name settle verdict)
              names
        | _ -> ());
        List.iteri
          (fun i rp ->
            match rp.Obs.Run.series with
            | None -> ()
            | Some s ->
                let file =
                  if i = 0 then series_file
                  else Printf.sprintf "%s.rep%d" series_file i
                in
                let csv = Obs.Export.series_csv s in
                Obs.Export.write_file file csv;
                Format.printf "series csv written to %s@." file;
                if check then begin
                  let s' = Obs.Export.series_of_csv csv in
                  if not (Obs.Series.equal s s') then begin
                    Printf.eprintf
                      "ccsim: check failed: %s does not round-trip\n" file;
                    exit 1
                  end
                end)
          o.Obs.Run.reps;
        if check then Format.printf "check: all series CSVs round-trip ok@."
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a sampled simulation and report facility statistics \
          (utilization, queue high-water marks, busy time), the engine \
          profile (per-process event counts), and fixed-interval time \
          series of utilizations, lock-table occupancy, blocked clients, \
          and commit/abort rates, exported as CSV.")
    Term.(
      const run $ cell_term ~commits_default:500 () $ series_file $ interval
      $ check $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim metrics                                                       *)
(* ------------------------------------------------------------------ *)

let metrics_cmd =
  let shards =
    Arg.(
      value & opt pos_int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the database over N shard servers; cross-shard \
             transactions commit via 2PC and contribute prepare/decide \
             phases and in-doubt time.")
  in
  let out_file =
    Arg.(
      value & opt string "metrics.prom"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the OpenMetrics exposition here.")
  in
  let spans_file =
    Arg.(
      value & opt (some string) None
      & info [ "spans-text" ] ~docv:"FILE"
          ~doc:"Also write the merged span record as plain text.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-validate: every span record must be well-formed \
             (balanced open/close, monotone timestamps, parent \
             containment), the per-phase latency components must sum to \
             the end-to-end commit latency, and the commit-latency \
             histogram must count exactly the committed transactions.")
  in
  let run cell shards out_file spans_file check jobs =
    let spec =
      { (cell_spec ~obs:Obs.Config.latency cell) with
        Core.Simulator.n_shards = shards }
    in
    let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:cell.cell_reps in
    match r.Core.Simulator.obs with
    | None ->
        Printf.eprintf "ccsim: run returned no observability payload\n";
        exit 1
    | Some o ->
        Format.printf "%a@." Core.Simulator.pp_result r;
        warn_if_ring_wrapped o;
        let cp = Obs.Critical_path.analyze (Obs.Run.merged_spans o) in
        Format.printf "@.%a@." Obs.Critical_path.pp cp;
        let m =
          match Obs.Run.merged_metrics o with
          | Some m -> m
          | None ->
              Printf.eprintf "ccsim: run returned no metrics registry\n";
              exit 1
        in
        (match Obs.Metrics.histogram m "ccsim_commit_latency_seconds" with
        | Some h when Obs.Metrics.Hist.count h > 0 ->
            Format.printf
              "@.commit latency (n=%d): p50 %.4fs p95 %.4fs p99 %.4fs mean \
               %.4fs@."
              (Obs.Metrics.Hist.count h)
              (Obs.Metrics.Hist.quantile h 0.50)
              (Obs.Metrics.Hist.quantile h 0.95)
              (Obs.Metrics.Hist.quantile h 0.99)
              (Obs.Metrics.Hist.sum h
              /. float_of_int (Obs.Metrics.Hist.count h))
        | _ -> Format.printf "@.commit latency: no observations@.");
        Obs.Export.write_file out_file (Obs.Metrics.to_openmetrics m);
        Format.printf "openmetrics written to %s@." out_file;
        (match spans_file with
        | Some f ->
            Obs.Export.write_file f
              (Obs.Export.span_text (Obs.Run.merged_spans o));
            Format.printf "span text written to %s@." f
        | None -> ());
        if check then begin
          List.iter
            (fun rep ->
              let ck =
                Obs.Span.validate ~dropped:rep.Obs.Run.spans_dropped
                  rep.Obs.Run.spans
              in
              if not (Obs.Span.check_ok ck) then begin
                Format.eprintf
                  "ccsim: check failed: invalid span record:@.%a@."
                  Obs.Span.pp_check ck;
                exit 1
              end)
            o.Obs.Run.reps;
          if cp.Obs.Critical_path.cp_xacts = 0 then begin
            Printf.eprintf "ccsim: check failed: no committed transactions\n";
            exit 1
          end;
          if not (Obs.Critical_path.reconciles cp) then begin
            Printf.eprintf
              "ccsim: check failed: phase components do not sum to the \
               end-to-end latency (end-to-end %.9f, phases %.9f)\n"
              cp.Obs.Critical_path.cp_end_to_end
              cp.Obs.Critical_path.cp_phase_sum;
            exit 1
          end;
          (match Obs.Metrics.histogram m "ccsim_commit_latency_seconds" with
          | Some h
            when Obs.Metrics.Hist.count h = cp.Obs.Critical_path.cp_xacts ->
              ()
          | Some h ->
              Printf.eprintf
                "ccsim: check failed: latency histogram count %d <> %d \
                 committed transactions\n"
                (Obs.Metrics.Hist.count h) cp.Obs.Critical_path.cp_xacts;
              exit 1
          | None ->
              Printf.eprintf
                "ccsim: check failed: no commit-latency histogram\n";
              exit 1);
          Format.printf
            "check: %d span records well-formed; %d phases reconcile to \
             %.6fs end-to-end (residual %.2e)@."
            (Obs.Run.total_spans o)
            (List.length cp.Obs.Critical_path.cp_client)
            cp.Obs.Critical_path.cp_end_to_end
            (Obs.Critical_path.residual cp)
        end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a simulation with transaction spans and the online metrics \
          registry enabled; print the commit-latency decomposition (think, \
          client CPU, fetch/certify/commit waits, abort work, restart \
          back-off — summing to the end-to-end latency), per-shard server \
          phases, and 2PC prepare/decide phases; export every counter, \
          gauge, and latency histogram as OpenMetrics text.  Deterministic \
          at any $(b,-j): artifacts are byte-identical for every job \
          count.")
    Term.(
      const run $ cell_term ~commits_default:500 () $ shards $ out_file
      $ spans_file $ check $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim causal                                                        *)
(* ------------------------------------------------------------------ *)

let causal_cmd =
  let shards =
    Arg.(
      value & opt pos_int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the database over N shard servers; 2PC \
             prepare/vote/decision fan-out then shows up as branching in \
             the causal DAGs.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Run under the seeded default fault plan (message loss, \
             duplication and delay, client crashes; independent shard \
             crashes and coordinator amnesia when $(b,--shards) > 1), so \
             the DAGs include retransmissions, duplicate copies, and \
             termination-protocol traffic.")
  in
  let dag_file =
    Arg.(
      value & opt (some string) None
      & info [ "dag" ] ~docv:"FILE"
          ~doc:
            "Write the merged causal record as plain text; byte-identical \
             for every $(b,-j).")
  in
  let perfetto_file =
    Arg.(
      value & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write Chrome/Perfetto trace_event JSON with span bars and one \
             flow arrow per delivered message copy.")
  in
  let chains =
    Arg.(
      value & opt int 3
      & info [ "chains" ] ~docv:"N"
          ~doc:
            "Print the critical chain (gating message sequence) of the N \
             slowest committed transactions.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-validate: every transaction's DAG must be well-formed \
             (acyclic by construction, single root, delivery never before \
             send, causes never after effects), and the committed DAGs' \
             root-to-end sum must reconcile with the span-derived \
             end-to-end commit latency to 1e-9.")
  in
  let run cell shards faults dag_file perfetto_file chains check jobs =
    let spec =
      { (cell_spec ~obs:Obs.Config.causal cell) with
        Core.Simulator.n_shards = shards;
        fault =
          (* the full gremlin set: message loss/dup/delay and client
             crashes from the default plan, plus — sharded — independent
             shard crashes and coordinator amnesia, so every DAG shape
             the protocols can produce shows up *)
          (if not faults then Fault.Plan.none
           else if shards > 1 then
             {
               (Fault.Plan.default ~seed:cell.cell_seed) with
               Fault.Plan.server_crash_mean = 8.0;
               server_restart_mean = 0.5;
               checkpoint_interval = 5.0;
               coord_crash_prob = 0.1;
             }
           else Fault.Plan.default ~seed:cell.cell_seed);
      }
    in
    let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:cell.cell_reps in
    match r.Core.Simulator.obs with
    | None ->
        Printf.eprintf "ccsim: run returned no observability payload\n";
        exit 1
    | Some o ->
        Format.printf "%a@." Core.Simulator.pp_result r;
        warn_if_ring_wrapped o;
        let mc = Obs.Run.merged_causal o in
        let an =
          Obs.Causal.analyze ~dropped:(Obs.Run.causal_dropped o) mc
        in
        Format.printf "@.%a@." Obs.Causal.pp_check an.Obs.Causal.an_check;
        (* per-kind wire amplification over every Send node *)
        let amps = Obs.Causal.amplification mc in
        Format.printf "@.message amplification by kind:@.";
        Format.printf "  %-16s %8s %8s %10s %6s %6s@." "kind" "msgs" "pkts"
          "bytes" "retx" "dups";
        List.iter
          (fun a ->
            Format.printf "  %-16s %8d %8d %10d %6d %6d@."
              a.Obs.Causal.am_kind a.Obs.Causal.am_msgs a.Obs.Causal.am_pkts
              a.Obs.Causal.am_bytes a.Obs.Causal.am_retx a.Obs.Causal.am_dups)
          amps;
        let ck = an.Obs.Causal.an_check in
        if ck.Obs.Causal.ck_committed > 0 then
          Format.printf "  %d msgs / %d commits = %.2f msgs per commit@."
            ck.Obs.Causal.ck_msgs ck.Obs.Causal.ck_committed
            (float_of_int ck.Obs.Causal.ck_msgs
            /. float_of_int ck.Obs.Causal.ck_committed);
        (* waterfall of the slowest committed transactions' gating chains *)
        let committed =
          Array.to_list an.Obs.Causal.an_dags
          |> List.filter (fun d -> d.Obs.Causal.dg_ok)
        in
        let slowest =
          List.sort
            (fun a b ->
              compare
                (b.Obs.Causal.dg_finish -. b.Obs.Causal.dg_start)
                (a.Obs.Causal.dg_finish -. a.Obs.Causal.dg_start))
            committed
        in
        let rec take n = function
          | [] -> []
          | _ when n <= 0 -> []
          | x :: tl -> x :: take (n - 1) tl
        in
        List.iter
          (fun d ->
            let dur = d.Obs.Causal.dg_finish -. d.Obs.Causal.dg_start in
            Format.printf
              "@.critical chain: rep%d client %d xid %d — %d msgs, %d hops, \
               %.6fs@."
              d.Obs.Causal.dg_rep d.Obs.Causal.dg_client d.Obs.Causal.dg_xid
              d.Obs.Causal.dg_msgs
              (List.length d.Obs.Causal.dg_chain)
              dur;
            List.iter
              (fun l ->
                let at = l.Obs.Causal.lk_send -. d.Obs.Causal.dg_start in
                let fly = l.Obs.Causal.lk_recv -. l.Obs.Causal.lk_send in
                let flags =
                  (if l.Obs.Causal.lk_retry > 0 then
                     Printf.sprintf " retry=%d" l.Obs.Causal.lk_retry
                   else "")
                  ^
                  if l.Obs.Causal.lk_dup > 0 then
                    Printf.sprintf " dup=%d" l.Obs.Causal.lk_dup
                  else ""
                in
                Format.printf "  +%.6fs %-16s %s%.6fs in flight%s@." at
                  l.Obs.Causal.lk_label
                  (String.make
                     (min 40 (int_of_float (at /. Float.max dur 1e-9 *. 40.)))
                     ' ')
                  fly flags)
              d.Obs.Causal.dg_chain)
          (take chains slowest);
        (* artifacts *)
        (match dag_file with
        | Some f ->
            Obs.Export.write_file f (Obs.Export.dag_text mc);
            Format.printf "@.dag text written to %s@." f
        | None -> ());
        (match perfetto_file with
        | Some f ->
            let js =
              Obs.Export.perfetto ~spans:(Obs.Run.merged_spans o) ~flows:mc
                (Obs.Run.merged_trace o)
            in
            Obs.Export.write_file f js;
            Format.printf "perfetto json written to %s@." f;
            (match Obs.Export.validate_json js with
            | Ok () -> ()
            | Error e ->
                Printf.eprintf "ccsim: emitted invalid JSON: %s\n" e;
                exit 1)
        | None -> ());
        (* reconciliation with the span-phase decomposition: Root/End use
           the Xact span's exact open/close instants, so the two sums are
           the same numbers added in a different order *)
        let cp = Obs.Critical_path.analyze (Obs.Run.merged_spans o) in
        let residual =
          Float.abs
            (an.Obs.Causal.an_chain_sum -. cp.Obs.Critical_path.cp_end_to_end)
        in
        Format.printf
          "@.causal end-to-end %.6fs vs span end-to-end %.6fs (residual \
           %.2e)@."
          an.Obs.Causal.an_chain_sum cp.Obs.Critical_path.cp_end_to_end
          residual;
        if check then begin
          if not (Obs.Causal.check_ok ck) then begin
            Format.eprintf "ccsim: check failed: invalid causal record:@.%a@."
              Obs.Causal.pp_check ck;
            exit 1
          end;
          if ck.Obs.Causal.ck_committed = 0 then begin
            Printf.eprintf "ccsim: check failed: no committed transactions\n";
            exit 1
          end;
          if residual > 1e-9 then begin
            Printf.eprintf
              "ccsim: check failed: causal chain sum %.12f does not \
               reconcile with span end-to-end %.12f\n"
              an.Obs.Causal.an_chain_sum cp.Obs.Critical_path.cp_end_to_end;
            exit 1
          end;
          Format.printf
            "check: %d DAGs well-formed (%d committed, %d msgs, %d \
             delivered, %d dropped); causal sum reconciles to %.6fs \
             (residual %.2e)@."
            ck.Obs.Causal.ck_groups ck.Obs.Causal.ck_committed
            ck.Obs.Causal.ck_msgs ck.Obs.Causal.ck_delivered
            ck.Obs.Causal.ck_dropped_msgs an.Obs.Causal.an_chain_sum residual
        end
  in
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Run a simulation with causal message tracing: every message \
          carries the node that caused it, so each transaction yields a \
          causal DAG covering fetches, callbacks, notifications, \
          retransmissions, and 2PC fan-out.  Prints DAG validation, \
          per-kind message-amplification, and the slowest transactions' \
          gating chains; exports the record as deterministic text \
          ($(b,--dag)) and Perfetto flow arrows ($(b,--perfetto)).")
    Term.(
      const run $ cell_term ~commits_default:500 () $ shards $ faults
      $ dag_file $ perfetto_file $ chains $ check $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim exp                                                           *)
(* ------------------------------------------------------------------ *)

let exp_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (see $(b,ccsim list)), or 'all'.")
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List registered experiment ids with descriptions and exit.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Fewer commits per run.") in
  let detail =
    Arg.(value & flag & info [ "detail" ] ~doc:"Abort/hit/message columns.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write figures as CSV.")
  in
  let reps =
    Arg.(
      value & opt pos_int 1
      & info [ "reps" ] ~docv:"N"
          ~doc:
            "Replications per cell (default 1).  At N >= 2 every figure \
             cell gains a 95% confidence interval (the ± columns); at 1 \
             they read ±n/a.")
  in
  let plots =
    Arg.(
      value & opt (some string) None
      & info [ "plots" ] ~docv:"DIR"
          ~doc:
            "Also write a gnuplot $(i,ID).dat and $(i,ID).gp per figure \
             into $(docv).")
  in
  let run ids list_flag quick detail csv plots reps jobs =
    if list_flag then begin
      Format.printf "%a" Experiments.Suite.pp_list ();
      exit 0
    end;
    let selection =
      match Experiments.Suite.resolve ids with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "ccsim: %s\n" e;
          exit 1
    in
    let opts =
      let base =
        if quick then Experiments.Exp_defs.quick_opts
        else Experiments.Exp_defs.default_opts
      in
      { base with Experiments.Exp_defs.reps }
    in
    Format.printf "%s@."
      (Experiments.Report.repro_line ~seed:opts.Experiments.Exp_defs.seed ~jobs);
    let runner = Experiments.Exp_defs.make_runner ~jobs opts in
    (* (experiment, algorithm, clients, commits, stop) of every cell that
       ended before its commit target *)
    let short = ref [] in
    let buf = Buffer.create 4096 in
    let add_csv =
      List.iter (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
    in
    List.iter
      (fun (id, descr, build) ->
        Format.printf "@.###### %s — %s@." id descr;
        let out = Experiments.Exp_defs.run_build runner build in
        Experiments.Report.print_output ~detail Format.std_formatter out;
        List.iter
          (fun (r : Core.Simulator.result) ->
            short :=
              (id, Core.Proto.algorithm_name r.algo, r.n_clients, r.commits, r.stop)
              :: !short)
          (Experiments.Exp_defs.take_short runner);
        match out with
        | Experiments.Suite.Figures figs ->
            List.iter
              (fun f ->
                add_csv (Experiments.Report.figure_csv f);
                Option.iter
                  (fun dir -> ignore (Experiments.Report.write_gnuplot ~dir f))
                  plots)
              figs
        | Experiments.Suite.Map _ -> ())
      selection.figures;
    (* client-sweep benchmarks the simulator itself (wall-clock cells run
       sequentially, uncached); it is excluded from 'all' so regenerating
       the paper's figures never implies a 100k-client run *)
    if selection.client_sweep then begin
      Format.printf "@.###### client-sweep — simulator scalability vs \
                     population@.";
      let cells =
        Experiments.Client_sweep.run ~quick
          ~seed:opts.Experiments.Exp_defs.seed ()
      in
      Experiments.Client_sweep.print Format.std_formatter cells;
      add_csv (Experiments.Client_sweep.csv cells);
      List.iter
        (fun (c : Experiments.Client_sweep.cell) ->
          if c.sw_stop <> Core.Simulator.Target_reached then
            short :=
              ("client-sweep", c.sw_algo, c.sw_clients, c.sw_commits, c.sw_stop)
              :: !short)
        cells
    end;
    (match csv with
    | Some file ->
        let oc = open_out file in
        output_string oc (Buffer.contents buf);
        close_out oc;
        Format.printf "@.csv written to %s@." file
    | None -> ());
    (* a cell that stopped before its commit target is a wedged or
       truncated run: its row must not pass for a result *)
    if !short <> [] then begin
      Format.print_flush ();
      Printf.eprintf "ccsim: %d cell(s) ended short of their commit target:\n"
        (List.length !short);
      List.iter
        (fun (id, algo, clients, commits, stop) ->
          Printf.eprintf "  %s  %s  clients=%d  commits=%d  (%s)\n" id algo
            clients commits (stop_name stop))
        (List.rev !short);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's tables and figures.")
    Term.(
      const run $ ids $ list_flag $ quick $ detail $ csv $ plots $ reps $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim chaos                                                         *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let seeds =
    Arg.(
      value & opt pos_int 20
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Seeded fault plans per algorithm (seeds 1..N).")
  in
  let algos =
    Arg.(
      value
      & opt (list algo_conv) Experiments.Chaos.default_algos
      & info [ "algos" ] ~docv:"A,B,..."
          ~doc:"Algorithms to audit (default: all five).")
  in
  let drop =
    Arg.(
      value & opt (some float) None
      & info [ "drop" ] ~docv:"P" ~doc:"Override message drop probability.")
  in
  let crash_mean =
    Arg.(
      value & opt (some float) None
      & info [ "crash-mean" ] ~docv:"S"
          ~doc:"Override mean seconds between client crashes (0 disables).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer commits per run.")
  in
  let shards =
    Arg.(
      value & opt pos_int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the database over N shard servers (default 1). \
             Cross-shard transactions commit via presumed-abort 2PC; the \
             audit adds per-shard durability and cross-shard atomicity \
             checks.  With --server-faults the plans come from \
             Fault.Plan.shard_default: independent per-shard crash \
             streams plus coordinator amnesia between prepare and \
             commit.")
  in
  let server_faults =
    Arg.(
      value & flag
      & info [ "server-faults" ]
          ~doc:
            "Crash and recover the SERVER instead of the clients: plans \
             from Fault.Plan.server_default (durable WAL, checkpoints, \
             log replay), audited for durability — no acknowledged \
             commit lost, no uncommitted update visible.")
  in
  let unsafe =
    Arg.(
      value & flag
      & info [ "unsafe-skip-validation" ]
          ~doc:
            "Deliberately disable commit validation to prove the audit \
             catches protocol violations (expected to FAIL).")
  in
  let run seeds algos drop crash_mean quick shards server_faults unsafe jobs =
    let measured_commits = if quick then 150 else 400 in
    let plan seed =
      let p =
        if server_faults then
          if shards > 1 then Fault.Plan.shard_default ~seed
          else Fault.Plan.server_default ~seed
        else Fault.Plan.default ~seed
      in
      let p =
        match drop with Some d -> { p with Fault.Plan.drop_prob = d } | None -> p
      in
      let p =
        match crash_mean with
        | Some m ->
            if m = 0.0 then
              { p with Fault.Plan.crash_mean = 0.0; restart_mean = 0.0 }
            else { p with Fault.Plan.crash_mean = m }
        | None -> p
      in
      { p with Fault.Plan.unsafe_skip_validation = unsafe }
    in
    let specs =
      List.concat_map
        (fun algo ->
          List.init seeds (fun k ->
              (* validation bypass only shows up under contention, so the
                 violation proof runs on the hot workload *)
              Experiments.Chaos.spec ~measured_commits ~n_shards:shards
                ~hot:unsafe ~fault:(plan (k + 1)) algo))
        algos
    in
    Format.printf
      "# chaos: %d plans x %d algorithms, %d commits each, %d shard(s), %s@."
      seeds (List.length algos) measured_commits shards
      (Experiments.Report.repro_line ~seed:1 ~jobs);
    let verdicts = Experiments.Chaos.sweep ~jobs specs in
    let failures =
      List.filter_map
        (fun (sp, v) ->
          Format.printf "%a@." Experiments.Chaos.pp_verdict v;
          if Experiments.Chaos.ok v then None else Some (sp, v))
        (List.combine specs verdicts)
    in
    match failures with
    | [] ->
        Format.printf "@.all %d chaos runs passed their audits@."
          (List.length specs)
    | fs ->
        Format.printf "@.%d of %d chaos runs FAILED; shrinking first failure@."
          (List.length fs) (List.length specs);
        let sp, v = List.hd fs in
        let minimal = Experiments.Chaos.shrink sp in
        let repro_file =
          Printf.sprintf "chaos-repro-%s-seed%d.trace"
            (Core.Proto.algorithm_name v.Experiments.Chaos.v_algo)
            minimal.Fault.Plan.seed
        in
        let n_events, n_spans =
          Experiments.Chaos.write_repro_trace ~file:repro_file
            { sp with Core.Simulator.fault = minimal }
        in
        let base = Filename.remove_extension repro_file in
        Format.printf
          "minimal reproducer: algo=%s plan={%s}@.rerun with: ccsim chaos \
           --seeds 1 ... (seed %d)@.reproducer trace (%d events) written to \
           %s@.span snapshot (%d records) written to %s.spans, metrics to \
           %s.metrics@."
          (Core.Proto.algorithm_name v.Experiments.Chaos.v_algo)
          (Fault.Plan.to_string minimal) minimal.Fault.Plan.seed n_events
          repro_file n_spans base base;
        exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Audit the consistency algorithms under seeded fault injection: \
          every run must stay serializable, reach its commit target, pass \
          the lock-table and cache-coherence sweeps, and recover every \
          crashed client.  With --server-faults the server itself crashes \
          and recovers from its redo log, and every run must also pass \
          the durability audit.")
    Term.(
      const run $ seeds $ algos $ drop $ crash_mean $ quick $ shards
      $ server_faults $ unsafe $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim list                                                          *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () = Format.printf "%a" Experiments.Suite.pp_list () in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "ccsim" ~version:"1.0.0"
      ~doc:
        "Client/server DBMS cache-consistency simulator (Wang & Rowe, \
         UCB/ERL M90/120)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            trace_cmd;
            stats_cmd;
            metrics_cmd;
            causal_cmd;
            exp_cmd;
            chaos_cmd;
            list_cmd;
          ]))
