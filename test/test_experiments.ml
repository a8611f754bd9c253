(* Tests for the experiment harness (lib/experiments). *)

let case name f = Alcotest.test_case name `Quick f

let astr_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let tiny_opts =
  {
    Experiments.Exp_defs.warmup = 20;
    measured = 100;
    reps = 1;
    seed = 5;
    max_sim_time = 10_000.0;
  }

let tiny_spec ?(algo = Core.Proto.Two_phase Core.Proto.Inter) ?(n_clients = 4) () =
  {
    Core.Simulator.cfg = Core.Sys_params.table5 ~n_clients ();
    db_params = Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ();
    xact_params = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 ();
    mix = None;
    algo;
    n_shards = 1;
    seed = 0;
    warmup_commits = 0;
    measured_commits = 0;
    max_sim_time = 0.0;
    fault = Fault.Plan.none;
    obs = Obs.Config.off;
  }

let test_runner_memoizes () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  let r1 = Experiments.Exp_defs.run runner (tiny_spec ()) in
  let r2 = Experiments.Exp_defs.run runner (tiny_spec ()) in
  Alcotest.(check int) "one simulation executed" 1
    (Experiments.Exp_defs.runs_executed runner);
  Alcotest.(check (float 0.0)) "same result" r1.Core.Simulator.mean_response
    r2.Core.Simulator.mean_response

let test_runner_distinguishes_specs () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  ignore (Experiments.Exp_defs.run runner (tiny_spec ()));
  ignore (Experiments.Exp_defs.run runner (tiny_spec ~algo:Core.Proto.Callback ()));
  ignore (Experiments.Exp_defs.run runner (tiny_spec ~n_clients:6 ()));
  Alcotest.(check int) "three distinct runs" 3
    (Experiments.Exp_defs.runs_executed runner)

let test_runner_distinguishes_knobs () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  let base = tiny_spec () in
  ignore (Experiments.Exp_defs.run runner base);
  let variant =
    {
      base with
      Core.Simulator.cfg =
        { base.Core.Simulator.cfg with Core.Sys_params.stale_drop_all = false };
    }
  in
  ignore (Experiments.Exp_defs.run runner variant);
  Alcotest.(check int) "knob changes the key" 2
    (Experiments.Exp_defs.runs_executed runner)

(* Regression for the cache-key collision bug: the old hand-enumerated key
   omitted several Sys_params fields, so specs differing only in one of
   them collided in the runner cache and reused the wrong result. *)
let test_key_covers_every_config_field () =
  let base = tiny_spec () in
  let cfg = base.Core.Simulator.cfg in
  let with_cfg c = { base with Core.Simulator.cfg = c } in
  let variants =
    [
      ("n_data_disks", with_cfg { cfg with Core.Sys_params.n_data_disks = 4 });
      ("client_mips", with_cfg { cfg with Core.Sys_params.client_mips = 2.5 });
      ("page_size", with_cfg { cfg with Core.Sys_params.page_size = 8192 });
      ( "control_msg_bytes",
        with_cfg { cfg with Core.Sys_params.control_msg_bytes = 512 } );
      ( "packet_size",
        with_cfg
          {
            cfg with
            Core.Sys_params.net =
              { cfg.Core.Sys_params.net with Net.Network.packet_size = 8192 };
          } );
      ("n_client_cpus", with_cfg { cfg with Core.Sys_params.n_client_cpus = 2 });
      ("n_server_cpus", with_cfg { cfg with Core.Sys_params.n_server_cpus = 2 });
      ( "db n_pages",
        {
          base with
          Core.Simulator.db_params =
            Db.Db_params.uniform ~n_classes:40 ~pages_per_class:60 ();
        } );
    ]
  in
  let base_key = Experiments.Exp_defs.key_of_spec base in
  List.iter
    (fun (field, spec') ->
      if Experiments.Exp_defs.key_of_spec spec' = base_key then
        Alcotest.failf "changing %s does not change the cache key" field)
    variants;
  (* and the key is still stable: equal specs built twice share it *)
  Alcotest.(check string) "equal specs share a key" base_key
    (Experiments.Exp_defs.key_of_spec (tiny_spec ()))

(* The acceptance contract of the parallel runner: one figure cell run
   through run_build with 1 and 4 workers yields identical results,
   field by field, because randomness is seeded per spec. *)
let test_run_build_jobs_invariant () =
  let build runner =
    List.map
      (fun n -> Experiments.Exp_defs.run runner (tiny_spec ~n_clients:n ()))
      [ 2; 3; 4 ]
  in
  let r1 =
    Experiments.Exp_defs.run_build
      (Experiments.Exp_defs.make_runner ~jobs:1 tiny_opts)
      build
  in
  let runner4 = Experiments.Exp_defs.make_runner ~jobs:4 tiny_opts in
  let r4 = Experiments.Exp_defs.run_build runner4 build in
  Alcotest.(check int) "three cells executed once each" 3
    (Experiments.Exp_defs.runs_executed runner4);
  List.iter2
    (fun (a : Core.Simulator.result) (b : Core.Simulator.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "clients=%d identical" a.Core.Simulator.n_clients)
        true (a = b))
    r1 r4

let test_run_build_memoizes_across_calls () =
  let runner = Experiments.Exp_defs.make_runner ~jobs:2 tiny_opts in
  let build r = Experiments.Exp_defs.run r (tiny_spec ()) in
  let a = Experiments.Exp_defs.run_build runner build in
  let b = Experiments.Exp_defs.run_build runner build in
  Alcotest.(check int) "one simulation for both builds" 1
    (Experiments.Exp_defs.runs_executed runner);
  Alcotest.(check bool) "cached result returned" true (a = b);
  (* direct run also hits the same cache *)
  let c = Experiments.Exp_defs.run runner (tiny_spec ()) in
  Alcotest.(check int) "still one" 1 (Experiments.Exp_defs.runs_executed runner);
  Alcotest.(check bool) "same" true (a = c)

let test_run_build_propagates_build_exception () =
  let runner = Experiments.Exp_defs.make_runner ~jobs:2 tiny_opts in
  Alcotest.check_raises "build exception escapes" (Failure "bad build")
    (fun () ->
      ignore
        (Experiments.Exp_defs.run_build runner (fun _ -> failwith "bad build")));
  (* the runner is still usable afterwards *)
  ignore (Experiments.Exp_defs.run_build runner (fun r ->
      Experiments.Exp_defs.run r (tiny_spec ())));
  Alcotest.(check int) "recovered" 1 (Experiments.Exp_defs.runs_executed runner)

let test_figure_csv_shape () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  let r = Experiments.Exp_defs.run runner (tiny_spec ()) in
  let fig =
    {
      Experiments.Exp_defs.fig_id = "figX";
      title = "test";
      xlabel = "clients";
      metric = Experiments.Exp_defs.Response_time;
      series = [ { Experiments.Exp_defs.label = "2PL"; points = [ (4.0, r) ] } ];
    }
  in
  match Experiments.Report.figure_csv fig with
  | [ header; row ] ->
      Alcotest.(check string) "header"
        "fig_id,metric,x,algorithm,value,ci_lo,ci_hi,aborts,hit_ratio,msgs_per_commit,stop"
        header;
      Alcotest.(check bool) "row prefix" true
        (String.length row > 10 && String.sub row 0 5 = "figX,");
      Alcotest.(check int) "one field per column"
        (List.length (String.split_on_char ',' header))
        (List.length (String.split_on_char ',' row));
      Alcotest.(check bool) "reached its target" true
        (String.ends_with ~suffix:",target" row)
  | lines -> Alcotest.failf "expected 2 csv lines, got %d" (List.length lines)

(* The client-sweep CSV names why each cell stopped, so a short cell
   (which keeps its numbers there) cannot pass for a fast one. *)
let test_client_sweep_csv_shape () =
  let cell stop =
    {
      Experiments.Client_sweep.sw_clients = 1000;
      sw_algo = "callback";
      sw_commits = (if stop = Core.Simulator.Target_reached then 400 else 330);
      sw_target = 400;
      sw_events = 123456;
      sw_wall_s = 1.0;
      sw_heap_hwm = 1000;
      sw_live_words_per_client = 100;
      sw_stop = stop;
    }
  in
  match
    Experiments.Client_sweep.csv
      Core.Simulator.[ cell Target_reached; cell Heap_drained; cell Time_limit ]
  with
  | [ header; full; drained; timed_out ] ->
      Alcotest.(check string) "header"
        "clients,algorithm,events,wall_s,events_per_sec,heap_hwm,\
         live_words_per_client,commits,stop"
        header;
      List.iter
        (fun (row, stop) ->
          let fields = String.split_on_char ',' row in
          Alcotest.(check int) "one field per column"
            (List.length (String.split_on_char ',' header))
            (List.length fields);
          Alcotest.(check string) "stop" stop (List.nth fields 8))
        [ (full, "target"); (drained, "heap-drained"); (timed_out, "time-limit") ]
  | lines -> Alcotest.failf "expected 4 csv lines, got %d" (List.length lines)

(* Golden check of the CI columns: a cell whose per-rep means are
   1, 2, 3 has mean 2 and half-width t(0.975, 2)/sqrt(3) = 2.4841, so
   the table cell reads "±2.484" and the CSV endpoints are -0.4841 and
   4.4841.  A single-rep cell leaves both CSV fields empty and the
   table shows "±n/a". *)
let test_figure_ci_columns () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  let r0 = Experiments.Exp_defs.run runner (tiny_spec ()) in
  let fig rep_means =
    {
      Experiments.Exp_defs.fig_id = "figX";
      title = "test";
      xlabel = "clients";
      metric = Experiments.Exp_defs.Response_time;
      series =
        [
          {
            Experiments.Exp_defs.label = "2PL";
            points =
              [
                ( 4.0,
                  {
                    r0 with
                    Core.Simulator.mean_response = 2.0;
                    rep_mean_responses = rep_means;
                  } );
              ];
          };
        ];
    }
  in
  (match Experiments.Report.figure_cis (fig [| 1.0; 2.0; 3.0 |]) with
  | [ ci ] ->
      Alcotest.(check bool) "available" true (Obs.Run_stats.available ci);
      Alcotest.(check string) "half" "2.484" (Obs.Run_stats.half_string ci);
      Alcotest.(check (float 1e-3)) "lo" (-0.4841) (Obs.Run_stats.ci_lo ci);
      Alcotest.(check (float 1e-3)) "hi" 4.4841 (Obs.Run_stats.ci_hi ci)
  | cis -> Alcotest.failf "expected 1 ci, got %d" (List.length cis));
  (match Experiments.Report.figure_csv (fig [| 1.0; 2.0; 3.0 |]) with
  | [ _; row ] -> (
      match String.split_on_char ',' row with
      | _ :: _ :: _ :: _ :: _ :: lo :: hi :: _ ->
          Alcotest.(check (float 1e-3)) "csv lo" (-0.4841) (float_of_string lo);
          Alcotest.(check (float 1e-3)) "csv hi" 4.4841 (float_of_string hi)
      | _ -> Alcotest.fail "csv row too short")
  | lines -> Alcotest.failf "expected 2 csv lines, got %d" (List.length lines));
  let table =
    Format.asprintf "%a"
      (Experiments.Report.print_figure ?detail:None
         ~target:tiny_opts.Experiments.Exp_defs.measured)
      (fig [| 1.0; 2.0; 3.0 |])
  in
  Alcotest.(check bool) "table shows the half-width" true
    (astr_contains table "2.000 \xc2\xb12.484");
  (* reps = 1: no dispersion, "n/a" everywhere, empty CSV endpoints *)
  (match Experiments.Report.figure_cis (fig [| 2.0 |]) with
  | [ ci ] ->
      Alcotest.(check bool) "unavailable" false (Obs.Run_stats.available ci);
      Alcotest.(check string) "n/a" "n/a" (Obs.Run_stats.half_string ci)
  | _ -> Alcotest.fail "expected 1 ci");
  match Experiments.Report.figure_csv (fig [| 2.0 |]) with
  | [ _; row ] -> (
      match String.split_on_char ',' row with
      | _ :: _ :: _ :: _ :: _ :: lo :: hi :: _ ->
          Alcotest.(check string) "empty lo" "" lo;
          Alcotest.(check string) "empty hi" "" hi
      | _ -> Alcotest.fail "csv row too short")
  | lines -> Alcotest.failf "expected 2 csv lines, got %d" (List.length lines)

(* A cell whose run drained the event heap short of its target prints
   "short N/M" in the figure table, its detail row and the client-sweep
   table, never its numbers. *)
let test_short_cells_marked () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  let r =
    {
      (Experiments.Exp_defs.run runner (tiny_spec ())) with
      Core.Simulator.commits = 241;
      mean_response = 1.234;
      stop = Core.Simulator.Heap_drained;
    }
  in
  let fig =
    {
      Experiments.Exp_defs.fig_id = "figX";
      title = "test";
      xlabel = "clients";
      metric = Experiments.Exp_defs.Response_time;
      series = [ { Experiments.Exp_defs.label = "callback"; points = [ (20.0, r) ] } ];
    }
  in
  let table =
    Format.asprintf "%a"
      (Experiments.Report.print_figure ~detail:true ~target:400)
      fig
  in
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length table then acc
      else go (i + 1) (if String.sub table i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "table and detail rows marked" 2 (count "short 241/400");
  Alcotest.(check int) "no number printed" 0 (count "1.234");
  let cell =
    {
      Experiments.Client_sweep.sw_clients = 1000;
      sw_algo = "callback";
      sw_commits = 330;
      sw_target = 400;
      sw_events = 123456;
      sw_wall_s = 1.0;
      sw_heap_hwm = 1000;
      sw_live_words_per_client = 100;
      sw_stop = Core.Simulator.Heap_drained;
    }
  in
  let sweep = Format.asprintf "%a" Experiments.Client_sweep.print [ cell ] in
  Alcotest.(check bool) "sweep cell marked" true (astr_contains sweep "short 330/400");
  Alcotest.(check bool) "sweep numbers hidden" false (astr_contains sweep "123456")

let test_experiment_catalog () =
  Alcotest.(check bool) "all experiments present" true
    (List.length Experiments.Suite.all >= 20);
  List.iter
    (fun id ->
      match Experiments.Suite.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "acl"; "fig5"; "fig9"; "fig13"; "fig22"; "ablate-stale"; "ext-objsize" ];
  Alcotest.(check (option reject)) "unknown id" None
    (Option.map (fun _ -> ()) (Experiments.Suite.find "nope"))

let test_resolve_ids () =
  let resolve = Experiments.Suite.resolve in
  let ids = function
    | Ok (sel : Experiments.Suite.selection) ->
        (List.map (fun (id, _, _) -> id) sel.figures, sel.client_sweep)
    | Error e -> Alcotest.failf "unexpected error: %s" e
  in
  let rejects what r =
    match r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  Alcotest.(check (pair (list string) bool))
    "order kept, sweep flagged" ([ "fig9"; "acl" ], true)
    (ids (resolve [ "fig9"; "client-sweep"; "acl" ]));
  Alcotest.(check (pair int bool))
    "all is every figure, never the sweep"
    (List.length Experiments.Suite.all, false)
    (let f, sw = ids (resolve [ "all" ]) in
     (List.length f, sw));
  rejects "unknown id" (resolve [ "fig99" ]);
  rejects "unknown id next to all" (resolve [ "all"; "fig99" ]);
  rejects "no ids" (resolve [])

let test_list_aligned () =
  let text = Format.asprintf "%a" Experiments.Suite.pp_list () in
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  Alcotest.(check int) "every figure plus client-sweep"
    (List.length Experiments.Suite.all + 1)
    (List.length lines);
  let ids = List.map (fun (id, _, _) -> id) Experiments.Suite.all @ [ "client-sweep" ] in
  let width = List.fold_left (fun w id -> max w (String.length id)) 0 ids in
  List.iter2
    (fun id line ->
      Alcotest.(check string) "id first" id (String.sub line 0 (String.length id));
      Alcotest.(check bool) (id ^ ": description at one column") true
        (String.length line > width + 1
        && String.trim (String.sub line 0 (width + 1)) = id
        && line.[width + 1] <> ' '))
    ids lines

let test_client_sweep_quick () =
  let cells =
    Experiments.Client_sweep.run ~quick:true
      ~seed:Experiments.Exp_defs.quick_opts.seed ()
  in
  List.iter
    (fun (c : Experiments.Client_sweep.cell) ->
      let at = Printf.sprintf "%s@%d" c.sw_algo c.sw_clients in
      Alcotest.(check bool) (at ^ " events > 0") true (c.sw_events > 0);
      Alcotest.(check bool) (at ^ " heap_hwm > 0") true (c.sw_heap_hwm > 0);
      Alcotest.(check bool) (at ^ " live words/client > 0") true
        (c.sw_live_words_per_client > 0);
      Alcotest.(check bool) (at ^ " wall >= 0") true (c.sw_wall_s >= 0.0))
    cells;
  let pops =
    List.sort_uniq compare
      (List.map (fun (c : Experiments.Client_sweep.cell) -> c.sw_clients) cells)
  in
  Alcotest.(check bool) ">= 3 populations" true (List.length pops >= 3);
  (* the budget of test_core's "per-client memory budget", on the sweep
     cell with the same protocol and population; smaller populations
     spread the server's fixed state over fewer clients *)
  match
    List.find_opt
      (fun (c : Experiments.Client_sweep.cell) ->
        c.sw_algo = "2PL" && c.sw_clients = 2_000)
      cells
  with
  | None -> Alcotest.fail "no 2PL cell at 2000 clients"
  | Some c ->
      if c.sw_live_words_per_client > 640 then
        Alcotest.failf "2PL@2000: %d live words per client, budget 640"
          c.sw_live_words_per_client

let test_fig13_runs_quick () =
  (* the decision map exercises the full grid; run it at tiny depth *)
  let runner = Experiments.Exp_defs.make_runner
      { tiny_opts with Experiments.Exp_defs.measured = 60; warmup = 10 }
  in
  match Experiments.Suite.fig13 runner with
  | Experiments.Suite.Map m ->
      Alcotest.(check int) "rows" 5 (Array.length m.Experiments.Suite.winners);
      Array.iter
        (fun row ->
          Array.iter
            (fun w ->
              if not (List.mem w [ "2PL"; "callback"; "either" ]) then
                Alcotest.failf "unexpected winner %s" w)
            row)
        m.Experiments.Suite.winners
  | Experiments.Suite.Figures _ -> Alcotest.fail "fig13 should be a map"

let test_metric_value () =
  let runner = Experiments.Exp_defs.make_runner tiny_opts in
  let r = Experiments.Exp_defs.run runner (tiny_spec ()) in
  Alcotest.(check (float 0.0)) "response metric" r.Core.Simulator.mean_response
    (Experiments.Exp_defs.metric_value Experiments.Exp_defs.Response_time r);
  Alcotest.(check (float 0.0)) "throughput metric" r.Core.Simulator.throughput
    (Experiments.Exp_defs.metric_value Experiments.Exp_defs.Throughput r)

let suites =
  [
    ( "exp_defs",
      [
        case "runner memoizes identical specs" test_runner_memoizes;
        case "distinct specs rerun" test_runner_distinguishes_specs;
        case "ablation knobs change the key" test_runner_distinguishes_knobs;
        case "key covers every config field" test_key_covers_every_config_field;
        case "metric_value" test_metric_value;
      ] );
    ( "parallel runner",
      [
        case "jobs=1 and jobs=4 results identical" test_run_build_jobs_invariant;
        case "run_build memoizes across calls" test_run_build_memoizes_across_calls;
        case "build exceptions propagate" test_run_build_propagates_build_exception;
      ] );
    ( "report",
      [
        case "figure csv shape" test_figure_csv_shape;
        case "client-sweep csv shape" test_client_sweep_csv_shape;
        case "ci columns golden" test_figure_ci_columns;
        case "short cells marked" test_short_cells_marked;
      ] );
    ( "suite",
      [
        case "experiment catalog" test_experiment_catalog;
        case "ids resolved before running" test_resolve_ids;
        case "one aligned listing" test_list_aligned;
        case "client-sweep quick cells" test_client_sweep_quick;
        case "fig13 decision map" test_fig13_runs_quick;
      ] );
  ]

let () = Alcotest.run "experiments" suites
