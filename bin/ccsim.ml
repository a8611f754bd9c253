(* ccsim: command-line front end to the client/server DBMS cache
   consistency simulator.

     ccsim run --algo callback --clients 30 --loc 0.5 --pw 0.2
     ccsim run --algo no-wait-notify --platform fast-net --large
     ccsim observe --view metrics,causal --shards 4 --faults --check
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
(* shared workload-cell arguments (run / observe)                      *)
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

(* A run that stops before its commit target must not pass for one that
   reached it: its numbers describe a wedged or truncated run. *)
let exit_if_short cell (r : Core.Simulator.result) =
  if r.stop <> Core.Simulator.Target_reached then begin
    Format.print_flush ();
    Printf.eprintf "ccsim: ended short: %d of %d commits (%s)\n" r.commits
      (cell.cell_commits * cell.cell_reps)
      (stop_name r.stop);
    exit 1
  end

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
    exit_if_short cell r
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulation and print its metrics.")
    Term.(const run $ cell_term () $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* ccsim observe                                                       *)
(* ------------------------------------------------------------------ *)

(* A view names the channels it reads; [observe] records one run with the
   union of the chosen views' channels and renders, writes and checks
   everything that was recorded.  The artifacts do not depend on which
   other channels were on, so each is the one a run recording only its
   own view's channels would give (test_obs "channel independence"). *)
let views =
  [
    ("trace", [ `Trace ]);
    ("spans", [ `Spans ]);
    ("metrics", [ `Spans; `Metrics ]);
    ("causal", [ `Spans; `Metrics; `Causal ]);
    ("stats", [ `Series ]);
  ]

let views_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    match List.filter (fun v -> not (List.mem_assoc v views)) names with
    | [] -> Ok (List.concat_map (fun v -> List.assoc v views) names)
    | bad :: _ ->
        Error
          (`Msg
             (Printf.sprintf "unknown view %S (expected %s)" bad
                (String.concat ", " (List.map fst views))))
  in
  let print fmt _ = Format.pp_print_string fmt "<views>" in
  Arg.conv (parse, print)

let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let events_shown = 25
let chains_shown = 3

let check_failed fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "ccsim: check failed: %s\n" s;
      exit 1)
    fmt

(* Each ring drops its oldest entries past [--limit]; a truncated record
   must be shouted, not buried in a struct field.  One line per wrapped
   channel, printed to both streams so it is visible in piped and
   interactive use alike. *)
let warn_if_ring_wrapped (o : Obs.Run.t) =
  List.iter
    (fun (channel, dropped) ->
      Format.printf
        "WARNING: %s ring wrapped — %d oldest entries were dropped; only the \
         tail survives (raise --limit)@."
        channel dropped;
      Printf.eprintf
        "ccsim: WARNING: %s ring wrapped — %d oldest entries dropped (raise \
         --limit)\n%!"
        channel dropped)
    (Obs.Run.wrapped o)

let print_trace merged =
  let n = min events_shown (Array.length merged) in
  if n > 0 then begin
    Format.printf "@.first %d of %d merged events:@." n (Array.length merged);
    Array.iter
      (fun (rep, e) ->
        Format.printf "  rep%d %12.6f  %s@." rep e.Obs.Recorder.time
          (Obs.Event.to_string e.Obs.Recorder.ev))
      (Array.sub merged 0 n)
  end

let print_latency m =
  match Obs.Metrics.histogram m "ccsim_commit_latency_seconds" with
  | Some h when Obs.Metrics.Hist.count h > 0 ->
      Format.printf
        "@.commit latency (n=%d): p50 %.4fs p95 %.4fs p99 %.4fs mean %.4fs@."
        (Obs.Metrics.Hist.count h)
        (Obs.Metrics.Hist.quantile h 0.50)
        (Obs.Metrics.Hist.quantile h 0.95)
        (Obs.Metrics.Hist.quantile h 0.99)
        (Obs.Metrics.Hist.sum h /. float_of_int (Obs.Metrics.Hist.count h))
  | _ -> Format.printf "@.commit latency: no observations@."

(* DAG validation, per-kind wire amplification over every Send node, and
   the gating chains of the slowest committed transactions. *)
let print_causal mc (an : Obs.Causal.analysis) =
  let ck = an.an_check in
  Format.printf "@.%a@." Obs.Causal.pp_check ck;
  Format.printf "@.message amplification by kind:@.";
  Format.printf "  %-16s %8s %8s %10s %6s %6s@." "kind" "msgs" "pkts" "bytes"
    "retx" "dups";
  List.iter
    (fun (a : Obs.Causal.amp) ->
      Format.printf "  %-16s %8d %8d %10d %6d %6d@." a.am_kind a.am_msgs
        a.am_pkts a.am_bytes a.am_retx a.am_dups)
    (Obs.Causal.amplification mc);
  if ck.ck_committed > 0 then
    Format.printf "  %d msgs / %d commits = %.2f msgs per commit@." ck.ck_msgs
      ck.ck_committed
      (float_of_int ck.ck_msgs /. float_of_int ck.ck_committed);
  let dur (d : Obs.Causal.dag) = d.dg_finish -. d.dg_start in
  let slowest =
    Array.to_list an.an_dags
    |> List.filter (fun (d : Obs.Causal.dag) -> d.dg_ok)
    |> List.stable_sort (fun a b -> compare (dur b) (dur a))
  in
  List.iteri
    (fun i (d : Obs.Causal.dag) ->
      if i < chains_shown then begin
        Format.printf
          "@.critical chain: rep%d client %d xid %d — %d msgs, %d hops, %.6fs@."
          d.dg_rep d.dg_client d.dg_xid d.dg_msgs (List.length d.dg_chain)
          (dur d);
        List.iter
          (fun (l : Obs.Causal.link) ->
            let at = l.lk_send -. d.dg_start in
            let flag name n =
              if n > 0 then Printf.sprintf " %s=%d" name n else ""
            in
            Format.printf "  +%.6fs %-16s %s%.6fs in flight%s%s@." at l.lk_label
              (String.make
                 (min 40 (int_of_float (at /. Float.max (dur d) 1e-9 *. 40.)))
                 ' ')
              (l.lk_recv -. l.lk_send) (flag "retry" l.lk_retry)
              (flag "dup" l.lk_dup))
          d.dg_chain
      end)
    slowest

(* Facility statistics, the engine profile, and per column of the sampled
   series its range, a batch-means interval over the measurement window,
   and the Welch warmup verdict. *)
let print_stats (r : Core.Simulator.result) (o : Obs.Run.t) =
  let first = List.hd o.reps in
  Format.printf "@.facilities (seed %d):@." first.rep_seed;
  List.iter
    (fun f -> Format.printf "  %a@." Obs.Run.pp_fac_snapshot f)
    first.facilities;
  Option.iter
    (fun (p : Sim.Engine.profile) ->
      Format.printf
        "@.engine: %d events, %d processes, %d holds, %d wakes, event-heap \
         high-water %d, live-process high-water %d@."
        p.pr_events p.pr_spawned p.pr_holds p.pr_wakes p.pr_heap_hwm
        p.pr_live_hwm;
      Format.printf "  %-24s %10s %10s %14s@." "process" "events" "holds"
        "hold-time (s)";
      List.iteri
        (fun i (pp : Sim.Engine.process_profile) ->
          if i < 12 then
            Format.printf "  %-24s %10d %10d %14.3f@." pp.pp_name pp.pp_runs
              pp.pp_holds pp.pp_hold_time)
        p.pr_per_process)
    first.profile;
  match first.series with
  | Some s when Obs.Series.length s > 0 ->
      let rows = Obs.Series.rows s and times = Obs.Series.times s in
      (* the measurement window is the last [window] simulated seconds;
         everything before it is warmup *)
      let warmup_end = Float.max 0.0 (r.sim_time -. r.window) in
      Format.printf "@.series (%d samples every %gs):@." (Obs.Series.length s)
        (Obs.Series.interval s);
      Format.printf "  %-18s %12s %12s %12s %22s@." "column" "min" "mean" "max"
        "batch-means 95% CI";
      Array.iteri
        (fun j name ->
          let col = Array.map (fun row -> row.(j)) rows in
          (* batch-means interval from the post-warmup samples of this
             single long run: the per-column analogue of a replication CI
             when there is only one replication *)
          let post =
            Array.of_list
              (List.filteri (fun i _ -> times.(i) >= warmup_end)
                 (Array.to_list col))
          in
          let bm =
            match Obs.Run_stats.batch_means post with
            | Some ci when Obs.Run_stats.available ci ->
                Printf.sprintf "%.4f ±%s" ci.ci_mean
                  (Obs.Run_stats.half_string ~digits:4 ci)
            | _ -> "±n/a"
          in
          Format.printf "  %-18s %12.4f %12.4f %12.4f %22s@." name
            (Array.fold_left Float.min infinity col)
            (Array.fold_left ( +. ) 0.0 col /. float_of_int (Array.length col))
            (Array.fold_left Float.max neg_infinity col)
            bm)
        (Obs.Series.names s);
      (* Welch warmup adequacy: average each column across the
         replications (classic Welch smoothing input), smooth, and ask
         whether the curve had settled into its steady-state band before
         the measurement window opened *)
      let rep_rows =
        List.filter_map
          (fun (rp : Obs.Run.rep) -> Option.map Obs.Series.rows rp.series)
          o.reps
      in
      let len =
        List.fold_left (fun m a -> min m (Array.length a)) (Array.length rows)
          rep_rows
      in
      Format.printf
        "@.warmup adequacy (Welch, 5%% band; measurement opened at t=%.1fs):@."
        warmup_end;
      Format.printf "  %-18s %14s %s@." "column" "settles at" "verdict";
      Array.iteri
        (fun j name ->
          let avg =
            Array.init len (fun i ->
                List.fold_left (fun acc a -> acc +. a.(i).(j)) 0.0 rep_rows
                /. float_of_int (List.length rep_rows))
          in
          let wu =
            Obs.Run_stats.warmup_diagnostic ~warmup_end
              ~times:(Array.sub times 0 len) avg
          in
          let settle, verdict =
            match wu.wu_settle with
            | _ when wu.wu_samples < 4 -> ("-", "n/a (too few samples)")
            | Some t when wu.wu_adequate -> (Printf.sprintf "%.1fs" t, "ok")
            | Some t ->
                ( Printf.sprintf "%.1fs" t,
                  "LATE — curve still drifting; extend --warmup" )
            | None -> ("-", "never settles in this run")
          in
          Format.printf "  %-18s %14s %s@." name settle verdict)
        (Obs.Series.names s)
  | _ -> ()

(* The checks of every recorded channel, each run once. *)
let check_run ~on ~perfetto (o : Obs.Run.t) ~cp ~causal =
  if on `Trace then begin
    if Array.length (Obs.Run.merged_trace o) = 0 then
      check_failed "merged trace is empty";
    Format.printf "check: merged trace non-empty@."
  end;
  Option.iter
    (fun js ->
      match Obs.Export.validate_json js with
      | Ok () -> Format.printf "check: perfetto JSON parses ok@."
      | Error e -> check_failed "invalid JSON: %s" e)
    perfetto;
  if on `Spans then begin
    List.iter
      (fun (rep : Obs.Run.rep) ->
        let ck = Obs.Span.validate ~dropped:rep.spans_dropped rep.spans in
        if not (Obs.Span.check_ok ck) then
          check_failed "invalid span record:\n%s"
            (Format.asprintf "%a" Obs.Span.pp_check ck))
      o.reps;
    Format.printf "check: %d span records well-formed@." (Obs.Run.total_spans o)
  end;
  if on `Metrics then begin
    let (cp : Obs.Critical_path.t) = Lazy.force cp in
    if cp.cp_xacts = 0 then check_failed "no committed transactions";
    if not (Obs.Critical_path.reconciles cp) then
      check_failed
        "phase components do not sum to the end-to-end latency (end-to-end \
         %.9f, phases %.9f)"
        cp.cp_end_to_end cp.cp_phase_sum;
    (match
       Option.bind (Obs.Run.merged_metrics o) (fun m ->
           Obs.Metrics.histogram m "ccsim_commit_latency_seconds")
     with
    | Some h when Obs.Metrics.Hist.count h = cp.cp_xacts -> ()
    | Some h ->
        check_failed "latency histogram count %d <> %d committed transactions"
          (Obs.Metrics.Hist.count h) cp.cp_xacts
    | None -> check_failed "no commit-latency histogram");
    Format.printf
      "check: %d phases reconcile to %.6fs end-to-end (residual %.2e)@."
      (List.length cp.cp_client) cp.cp_end_to_end
      (Obs.Critical_path.residual cp)
  end;
  Option.iter
    (fun ((an : Obs.Causal.analysis), residual) ->
      let ck = an.an_check in
      if not (Obs.Causal.check_ok ck) then
        check_failed "invalid causal record:\n%s"
          (Format.asprintf "%a" Obs.Causal.pp_check ck);
      if ck.ck_committed = 0 then check_failed "no committed transactions";
      if residual > 1e-9 then
        check_failed
          "causal chain sum %.12f does not reconcile with span end-to-end %.12f"
          an.an_chain_sum (Lazy.force cp).Obs.Critical_path.cp_end_to_end;
      Format.printf
        "check: %d DAGs well-formed (%d committed, %d msgs, %d delivered, %d \
         dropped); causal sum reconciles to %.6fs (residual %.2e)@."
        ck.ck_groups ck.ck_committed ck.ck_msgs ck.ck_delivered
        ck.ck_dropped_msgs an.an_chain_sum residual)
    causal;
  if on `Series then begin
    List.iter
      (fun (rp : Obs.Run.rep) ->
        Option.iter
          (fun s ->
            if
              not
                (Obs.Series.equal s
                   (Obs.Export.series_of_csv (Obs.Export.series_csv s)))
            then
              check_failed "series CSV of seed %d does not round-trip"
                rp.rep_seed)
          rp.series)
      o.reps;
    Format.printf "check: all series CSVs round-trip ok@."
  end

let observe_cmd =
  let views =
    Arg.(
      required
      & opt (some views_conv) None
      & info [ "view" ] ~docv:"V,..."
          ~doc:
            "Views to record and render: $(b,trace) (typed protocol \
             events), $(b,spans) (transaction spans and the commit-latency \
             decomposition), $(b,metrics) (spans plus the OpenMetrics \
             registry), $(b,causal) (metrics plus per-message causal DAGs, \
             wire amplification and gating chains), $(b,stats) (facility \
             statistics, engine profile and sampled time series).  The run \
             is recorded once with every chosen view's channels.")
  in
  let shards =
    Arg.(
      value & opt pos_int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the database over N shard servers; cross-shard \
             transactions commit via 2PC, which adds prepare/decide phases \
             and branching DAGs.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Run under the seeded default fault plan (message loss, \
             duplication and delay, client crashes; independent shard \
             crashes and coordinator amnesia when $(b,--shards) > 1).")
  in
  let limit =
    Arg.(
      value & opt pos_int Obs.Ring.default_limit
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Capacity of each trace, span and causal ring per replication; \
             past it the oldest entries are dropped.")
  in
  let interval =
    Arg.(
      value & opt pos_float 5.0
      & info [ "interval" ] ~docv:"S"
          ~doc:"Series sampling interval in simulated seconds.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-validate every recorded channel: the trace is non-empty; \
             the Perfetto JSON parses; every span record is well-formed \
             (balanced open/close, monotone timestamps, parent \
             containment); the phase components sum to the end-to-end \
             commit latency and the latency histogram counts exactly the \
             committed transactions; every causal DAG is well-formed and \
             the committed DAGs' root-to-end sum reconciles with the span \
             end-to-end latency to 1e-9; every series CSV round-trips.")
  in
  let file names doc =
    Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)
  in
  let perfetto =
    file [ "perfetto" ]
      "Write Chrome/Perfetto trace_event JSON with every recorded trace \
       event, span bar and causal flow arrow (open at ui.perfetto.dev)."
  and text = file [ "text" ] "Write the merged trace as plain text."
  and spans_text =
    file [ "spans-text" ] "Write the merged span record as plain text."
  and prom = file [ "prom" ] "Write the OpenMetrics exposition."
  and dag = file [ "dag" ] "Write the merged causal record as plain text."
  and series =
    file [ "series" ]
      "Write the sampled time series as CSV (replication k > 0 goes to \
       FILE.repk)."
  in
  let run cell channels shards faults limit interval check perfetto text
      spans_text prom dag series jobs =
    let on c = List.mem c channels in
    let needs =
      [
        ("--perfetto", perfetto, on `Trace || on `Spans, "trace or spans");
        ("--text", text, on `Trace, "trace");
        ("--spans-text", spans_text, on `Spans, "spans");
        ("--prom", prom, on `Metrics, "metrics");
        ("--dag", dag, on `Causal, "causal");
        ("--series", series, on `Series, "stats");
      ]
    in
    match List.find_opt (fun (_, f, ok, _) -> f <> None && not ok) needs with
    | Some (opt, _, _, v) ->
        `Error (true, Printf.sprintf "%s needs a view that records %s" opt v)
    | None ->
        let obs =
          Obs.Config.make ~trace:(on `Trace) ~spans:(on `Spans)
            ~metrics:(on `Metrics) ~causal:(on `Causal) ~series:(on `Series)
            ~profile:(on `Series) ~sample_interval:interval ~limit ()
        in
        let fault =
          (* the full gremlin set: message loss/dup/delay and client
             crashes from the default plan, plus — sharded — independent
             shard crashes and coordinator amnesia *)
          if not faults then Fault.Plan.none
          else if shards > 1 then
            {
              (Fault.Plan.default ~seed:cell.cell_seed) with
              Fault.Plan.server_crash_mean = 8.0;
              server_restart_mean = 0.5;
              checkpoint_interval = 5.0;
              coord_crash_prob = 0.1;
            }
          else Fault.Plan.default ~seed:cell.cell_seed
        in
        let spec =
          { (cell_spec ~obs cell) with Core.Simulator.n_shards = shards; fault }
        in
        let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:cell.cell_reps in
        let o = Option.get r.Core.Simulator.obs in
        Format.printf "%a@." Core.Simulator.pp_result r;
        warn_if_ring_wrapped o;
        let cp = lazy (Obs.Critical_path.analyze (Obs.Run.merged_spans o)) in
        let mc = Obs.Run.merged_causal o in
        if on `Trace then print_trace (Obs.Run.merged_trace o);
        if on `Spans then
          Format.printf "@.%a@." Obs.Critical_path.pp (Lazy.force cp);
        Option.iter print_latency (Obs.Run.merged_metrics o);
        (* reconciliation with the span-phase decomposition: Root/End use
           the Xact span's exact open/close instants, so the two sums are
           the same numbers added in a different order *)
        let causal =
          if not (on `Causal) then None
          else begin
            let an =
              Obs.Causal.analyze ~dropped:(Obs.Run.causal_dropped o) mc
            in
            print_causal mc an;
            let e2e = (Lazy.force cp).Obs.Critical_path.cp_end_to_end in
            let residual = Float.abs (an.an_chain_sum -. e2e) in
            Format.printf
              "@.causal end-to-end %.6fs vs span end-to-end %.6fs (residual \
               %.2e)@."
              an.an_chain_sum e2e residual;
            Some (an, residual)
          end
        in
        if on `Series then print_stats r o;
        let write file render =
          Option.iter
            (fun f ->
              Obs.Export.write_file f (render ());
              Format.printf "%s written@." f)
            file
        in
        let perfetto_json =
          Option.map
            (fun _ ->
              Obs.Export.perfetto ~spans:(Obs.Run.merged_spans o) ~flows:mc
                (Obs.Run.merged_trace o))
            perfetto
        in
        Format.printf "@.";
        write perfetto (fun () -> Option.get perfetto_json);
        write text (fun () -> Obs.Export.trace_text (Obs.Run.merged_trace o));
        write spans_text (fun () ->
            Obs.Export.span_text (Obs.Run.merged_spans o));
        write prom (fun () ->
            Obs.Metrics.to_openmetrics (Option.get (Obs.Run.merged_metrics o)));
        write dag (fun () -> Obs.Export.dag_text mc);
        List.iteri
          (fun i (rp : Obs.Run.rep) ->
            write
              (Option.map
                 (fun f -> if i = 0 then f else Printf.sprintf "%s.rep%d" f i)
                 series)
              (fun () -> Obs.Export.series_csv (Option.get rp.series)))
          o.reps;
        if check then check_run ~on ~perfetto:perfetto_json o ~cp ~causal;
        exit_if_short cell r;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Record one simulation with the chosen views' observability \
          channels and render each view: typed protocol events, the \
          commit-latency decomposition over transaction spans (client \
          phases, per-shard lock waits and callback rounds, 2PC phases), \
          the OpenMetrics registry (messages and aborts by kind), causal \
          message DAGs with per-kind amplification and the slowest \
          transactions' gating chains, and facility statistics with \
          sampled time series.  Artifacts are written only where a path \
          is given, and are byte-identical at any $(b,-j).  Exits 1 when \
          the run ends short of its commit target.")
    Term.(
      ret
        (const run $ cell_term ~commits_default:500 () $ views $ shards $ faults
       $ limit $ interval $ check $ perfetto $ text $ spans_text $ prom $ dag
       $ series $ jobs_arg))

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
        Experiments.Report.print_output ~detail
          ~target:(opts.measured * opts.reps) Format.std_formatter out;
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
            observe_cmd;
            exp_cmd;
            chaos_cmd;
            list_cmd;
          ]))
