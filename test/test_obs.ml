(* Tests for the observability subsystem: the typed trace recorder, the
   ring behind every channel and the one domain-local sink, recording
   across Sim.Pool workers, deterministic merging at any job count,
   sampler purity, artifacts independent of the other channels recorded,
   and the exporters (Perfetto JSON, series CSV). *)

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

let ev_page p = Obs.Event.Disk_read { page = p }

let test_recorder_basics () =
  let r = Obs.Recorder.create () in
  Alcotest.(check int) "empty" 0 (Obs.Recorder.length r);
  for i = 1 to 100 do
    Obs.Recorder.add r ~time:(float_of_int i) (ev_page i)
  done;
  Alcotest.(check int) "length" 100 (Obs.Recorder.length r);
  Alcotest.(check int) "no drops" 0 (Obs.Recorder.dropped r);
  let es = Obs.Recorder.entries r in
  Alcotest.(check int) "entries" 100 (Array.length es);
  Array.iteri
    (fun i e ->
      Alcotest.(check int) "seq in order" i e.Obs.Recorder.seq;
      match e.Obs.Recorder.ev with
      | Obs.Event.Disk_read { page } ->
          Alcotest.(check int) "payload" (i + 1) page
      | _ -> Alcotest.fail "wrong event")
    es

let test_recorder_ring_keeps_tail () =
  (* past the limit the OLDEST entries drop: a failing run keeps the tail
     that led up to the failure *)
  let r = Obs.Recorder.create ~limit:10 () in
  for i = 0 to 24 do
    Obs.Recorder.add r ~time:(float_of_int i) (ev_page i)
  done;
  Alcotest.(check int) "length capped" 10 (Obs.Recorder.length r);
  Alcotest.(check int) "dropped" 15 (Obs.Recorder.dropped r);
  let pages =
    Array.to_list (Obs.Recorder.entries r)
    |> List.map (fun e ->
           match e.Obs.Recorder.ev with
           | Obs.Event.Disk_read { page } -> page
           | _ -> -1)
  in
  Alcotest.(check (list int)) "last 10 kept" [ 15; 16; 17; 18; 19; 20; 21; 22; 23; 24 ] pages

let test_recorder_wrap_large () =
  (* wrap across chunk boundaries *)
  let limit = 5000 in
  let r = Obs.Recorder.create ~limit () in
  let n = 12_345 in
  for i = 0 to n - 1 do
    Obs.Recorder.add r ~time:(float_of_int i) (ev_page i)
  done;
  Alcotest.(check int) "length" limit (Obs.Recorder.length r);
  Alcotest.(check int) "dropped" (n - limit) (Obs.Recorder.dropped r);
  let es = Obs.Recorder.entries r in
  Alcotest.(check int) "first kept seq" (n - limit) es.(0).Obs.Recorder.seq;
  Alcotest.(check int) "last kept seq" (n - 1)
    es.(limit - 1).Obs.Recorder.seq

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

(* For any limit up to a little over two chunks and any push count, the
   ring holds the last min(n, limit) pushes in order and counts the rest
   as dropped. *)
let ring_keeps_last =
  let max_limit = (2 * Obs.Ring.chunk_size) + 3 in
  QCheck.Test.make ~name:"ring keeps the last limit pushes" ~count:200
    QCheck.(pair (int_range 1 max_limit) (int_range 0 (3 * max_limit)))
    (fun (limit, n) ->
      let r = Obs.Ring.create ~limit () in
      for i = 0 to n - 1 do
        Obs.Ring.push r i
      done;
      let kept = min n limit in
      Obs.Ring.to_array r = Array.init kept (fun i -> n - kept + i)
      && Obs.Ring.length r = kept
      && Obs.Ring.dropped r = max 0 (n - limit)
      && Obs.Ring.written r = n)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let trace_sink r = { Obs.Sink.none with Obs.Sink.trace = Some r }

let test_sink_dispatch_and_restore () =
  Alcotest.(check bool) "inactive" false (Obs.Sink.trace_on ());
  (* emitting with no sink installed is a no-op *)
  Obs.Sink.emit 0.5 (ev_page 6);
  let outer = Obs.Recorder.create () in
  Obs.Sink.with_ (trace_sink outer) (fun () ->
      Alcotest.(check bool) "recorder active" true (Obs.Sink.trace_on ());
      Obs.Sink.emit 1.5 (ev_page 7);
      (* a nested sink shadows the outer recorder, then restores it *)
      let inner = Obs.Recorder.create () in
      Obs.Sink.with_ (trace_sink inner) (fun () ->
          Obs.Sink.emit 2.0 (ev_page 8);
          Obs.Sink.emit 3.0 (ev_page 9));
      Alcotest.(check int) "inner recorder captured" 2
        (Obs.Recorder.length inner);
      Obs.Sink.emit 4.0 (ev_page 10));
  Alcotest.(check int) "outer saw only its own" 2 (Obs.Recorder.length outer);
  Alcotest.(check bool) "slot cleared on exit" false (Obs.Sink.trace_on ())

let test_sink_restored_on_raise () =
  let outer = trace_sink (Obs.Recorder.create ()) in
  Obs.Sink.with_ outer (fun () ->
      (try
         Obs.Sink.with_ (trace_sink (Obs.Recorder.create ())) (fun () ->
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "outer sink back after a raise" true
        (Obs.Sink.current () == outer));
  Alcotest.(check bool) "empty slot back" true
    (Obs.Sink.is_empty (Obs.Sink.current ()))

let test_sink_one_slot_for_all_channels () =
  let s =
    Obs.Sink.of_config
      (Obs.Config.make ~trace:true ~spans:true ~causal:true ~metrics:true ())
  in
  Obs.Sink.with_ s (fun () ->
      Obs.Sink.emit 1.0 (ev_page 1);
      let id =
        Obs.Sink.open_span ~time:1.0 ~track:(Obs.Span.Client 0)
          ~kind:Obs.Span.Xact ~parent:(-1) ~xid:0
      in
      Obs.Sink.close_span ~time:2.0 id;
      ignore (Obs.Sink.root ~time:1.0 ~client:0);
      Obs.Sink.incr "c" 2;
      Obs.Sink.observe "h" 0.5);
  let get = Option.get in
  Alcotest.(check int) "trace" 1
    (Array.length (Obs.Recorder.entries (get s.Obs.Sink.trace)));
  Alcotest.(check int) "spans" 2
    (Array.length (Obs.Span.entries (get s.Obs.Sink.spans)));
  Alcotest.(check int) "causal" 1
    (Array.length (Obs.Causal.entries (get s.Obs.Sink.causal)));
  let m = get s.Obs.Sink.metrics in
  Alcotest.(check (option int))
    "counter" (Some 2)
    (Obs.Metrics.counter_value m "c");
  Alcotest.(check bool) "histogram" true (Obs.Metrics.histogram m "h" <> None);
  Alcotest.(check bool) "off config builds an empty sink" true
    (Obs.Sink.is_empty (Obs.Sink.of_config Obs.Config.off))

(* ------------------------------------------------------------------ *)
(* Traced simulations, including across Sim.Pool                       *)
(* ------------------------------------------------------------------ *)

let small_spec ?(obs = Obs.Config.off) ?(seed = 7) () =
  let cfg = Core.Sys_params.table5 ~n_clients:4 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.3 ~inter_xact_loc:0.5 () in
  {
    (Core.Simulator.default_spec ~seed ~warmup_commits:20 ~measured_commits:60
       ~obs ~cfg ~xact_params:xp
       (Core.Proto.Two_phase Core.Proto.Inter))
    with
    Core.Simulator.db_params =
      Db.Db_params.uniform ~n_classes:4 ~pages_per_class:25 ();
  }

(* A run that observes nothing leaves the caller's sink installed, so its
   events reach the caller's recorder; a run that observes keeps its
   events to itself. *)
let test_run_keeps_caller_sink () =
  let outer = Obs.Recorder.create () in
  let sink = trace_sink outer in
  Obs.Sink.with_ sink (fun () ->
      let r = Shard.Shard_sim.run (small_spec ()) in
      Alcotest.(check bool) "no payload" true (r.Core.Simulator.obs = None);
      Alcotest.(check bool) "caller sink still installed" true
        (Obs.Sink.current () == sink));
  let seen = Array.length (Obs.Recorder.entries outer) in
  Alcotest.(check bool) "events reach the caller's recorder" true (seen > 0);
  Obs.Sink.with_ sink (fun () ->
      ignore (Shard.Shard_sim.run (small_spec ~obs:Obs.Config.trace_only ())));
  Alcotest.(check int) "an observed run records into its own sink" seen
    (Array.length (Obs.Recorder.entries outer))

(* A small ring wraps on every channel, and each wrapped channel is
   reported with its own drop count. *)
let test_wrapped_channels_reported () =
  let obs = Obs.Config.make ~trace:true ~spans:true ~causal:true ~limit:50 () in
  match (Shard.Shard_sim.run (small_spec ~obs ())).Core.Simulator.obs with
  | None -> Alcotest.fail "no obs payload"
  | Some o ->
      let rep = List.hd o.Obs.Run.reps in
      Alcotest.(check int) "span ring holds the limit" 50
        (Array.length rep.Obs.Run.spans);
      Alcotest.(check (list (pair string int)))
        "every wrapped channel named with its drop count"
        [
          ("trace", rep.Obs.Run.trace_dropped);
          ("span", rep.Obs.Run.spans_dropped);
          ("causal", rep.Obs.Run.causal_dropped);
        ]
        (Obs.Run.wrapped o);
      Alcotest.(check bool) "each dropped something" true
        (List.for_all (fun (_, n) -> n > 0) (Obs.Run.wrapped o));
      let unwrapped =
        Shard.Shard_sim.run (small_spec ~obs:Obs.Config.trace_only ())
      in
      Alcotest.(check (list (pair string int))) "default limit: none" []
        (Obs.Run.wrapped (Option.get unwrapped.Core.Simulator.obs))

let test_traced_run_payload () =
  let r = Shard.Shard_sim.run (small_spec ~obs:Obs.Config.trace_only ()) in
  match r.Core.Simulator.obs with
  | None -> Alcotest.fail "no obs payload"
  | Some o ->
      let rep = List.hd o.Obs.Run.reps in
      Alcotest.(check bool) "trace non-empty" true
        (Array.length rep.Obs.Run.trace > 0);
      Alcotest.(check int) "no drops" 0 rep.Obs.Run.trace_dropped;
      (* entries are (time, seq)-ordered *)
      let es = rep.Obs.Run.trace in
      for i = 1 to Array.length es - 1 do
        if es.(i).Obs.Recorder.time < es.(i - 1).Obs.Recorder.time then
          Alcotest.fail "trace times not monotone"
      done;
      Alcotest.(check bool) "commits recorded" true
        (Array.exists
           (fun e ->
             match e.Obs.Recorder.ev with
             | Obs.Event.Commit _ -> true
             | _ -> false)
           es)

let test_obs_off_no_payload () =
  let r = Shard.Shard_sim.run (small_spec ()) in
  Alcotest.(check bool) "no payload when off" true
    (r.Core.Simulator.obs = None)

let test_pool_runs_are_traced () =
  (* the "-j tracing gap": replications dispatched to Sim.Pool workers
     must record into their own domain's buffer and return it by value *)
  let spec = small_spec ~obs:Obs.Config.trace_only () in
  let r = Shard.Shard_sim.run_replicated ~jobs:2 spec ~reps:2 in
  match r.Core.Simulator.obs with
  | None -> Alcotest.fail "no obs payload from pooled run"
  | Some o ->
      Alcotest.(check int) "one payload per rep" 2 (List.length o.Obs.Run.reps);
      List.iteri
        (fun i rep ->
          Alcotest.(check int)
            (Printf.sprintf "rep %d seed" i)
            (spec.Core.Simulator.seed + i)
            rep.Obs.Run.rep_seed;
          Alcotest.(check bool)
            (Printf.sprintf "rep %d traced" i)
            true
            (Array.length rep.Obs.Run.trace > 0))
        o.Obs.Run.reps

let obs_full_fast =
  Obs.Config.make ~trace:true ~series:true ~sample_interval:2.0 ~profile:true
    ()

let test_jobs_invariance () =
  (* merged trace, series CSVs, and perfetto JSON are byte-identical at
     -j 1 and -j 4 *)
  let spec = small_spec ~obs:obs_full_fast () in
  let art jobs =
    let r = Shard.Shard_sim.run_replicated ~jobs spec ~reps:3 in
    let o = Option.get r.Core.Simulator.obs in
    let merged = Obs.Run.merged_trace o in
    let csvs =
      List.filter_map
        (fun rep -> Option.map Obs.Export.series_csv rep.Obs.Run.series)
        o.Obs.Run.reps
    in
    (Obs.Export.trace_text merged, Obs.Export.perfetto merged, csvs)
  in
  let t1, p1, c1 = art 1 in
  let t4, p4, c4 = art 4 in
  Alcotest.(check bool) "trace non-empty" true (String.length t1 > 0);
  Alcotest.(check string) "merged trace identical" t1 t4;
  Alcotest.(check string) "perfetto identical" p1 p4;
  Alcotest.(check (list string)) "series csvs identical" c1 c4;
  Alcotest.(check int) "one csv per rep" 3 (List.length c1)

let test_observability_is_pure () =
  (* tracing must not change any simulation outcome *)
  let base = Shard.Shard_sim.run (small_spec ()) in
  let traced =
    Shard.Shard_sim.run (small_spec ~obs:Obs.Config.trace_only ())
  in
  Alcotest.(check bool) "trace-only result identical" true
    ({ traced with Core.Simulator.obs = None } = base);
  (* the sampler adds its own wake-up events to the heap (so [events]
     grows) but must not perturb any measured outcome *)
  let full = Shard.Shard_sim.run (small_spec ~obs:obs_full_fast ()) in
  let scrub r = { r with Core.Simulator.obs = None; events = 0 } in
  Alcotest.(check bool) "sampled+profiled result identical" true
    (scrub full = scrub base)

let test_profile_in_payload () =
  let r =
    Shard.Shard_sim.run
      (small_spec ~obs:(Obs.Config.make ~profile:true ()) ())
  in
  let o = Option.get r.Core.Simulator.obs in
  match (List.hd o.Obs.Run.reps).Obs.Run.profile with
  | None -> Alcotest.fail "no profile"
  | Some p ->
      Alcotest.(check bool) "events counted" true (p.Sim.Engine.pr_events > 0);
      Alcotest.(check bool) "heap hwm positive" true
        (p.Sim.Engine.pr_heap_hwm > 0);
      Alcotest.(check bool) "per-process rows" true
        (List.length p.Sim.Engine.pr_per_process > 0);
      (* client main loops are the named hot processes *)
      Alcotest.(check bool) "client process named" true
        (List.exists
           (fun pp ->
             String.length pp.Sim.Engine.pp_name >= 6
             && String.sub pp.Sim.Engine.pp_name 0 6 = "client")
           p.Sim.Engine.pr_per_process)

let test_facility_snapshots () =
  let r = Shard.Shard_sim.run (small_spec ~obs:Obs.Config.trace_only ()) in
  let o = Option.get r.Core.Simulator.obs in
  let facs = (List.hd o.Obs.Run.reps).Obs.Run.facilities in
  let names = List.map (fun f -> f.Obs.Run.fac_name) facs in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "server-cpu"; "network" ];
  let cpu = List.find (fun f -> f.Obs.Run.fac_name = "server-cpu") facs in
  Alcotest.(check bool) "cpu busy" true (cpu.Obs.Run.fac_busy_time > 0.0);
  Alcotest.(check bool) "cpu completions" true (cpu.Obs.Run.fac_completions > 0)

(* ------------------------------------------------------------------ *)
(* Series + sampler                                                    *)
(* ------------------------------------------------------------------ *)

let test_series_record_and_times () =
  let s = Obs.Series.create ~interval:2.0 ~start:10.0 ~names:[| "a"; "b" |] in
  Obs.Series.record s [| 1.0; 2.0 |];
  Obs.Series.record s [| 3.0; 4.0 |];
  Alcotest.(check int) "length" 2 (Obs.Series.length s);
  Alcotest.(check (array (float 1e-9))) "times" [| 12.0; 14.0 |]
    (Obs.Series.times s);
  Alcotest.(check bool) "rows in order" true
    (Obs.Series.rows s = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Series.record: row width mismatch") (fun () ->
      Obs.Series.record s [| 1.0 |])

let test_sampler_process () =
  let eng = Sim.Engine.create () in
  let ticks = ref 0 in
  let s =
    Obs.Series.sample eng ~interval:1.0
      ~sources:[ ("tick", fun () -> incr ticks; float_of_int !ticks) ]
  in
  ignore (Sim.Engine.run eng ~until:10.0 ());
  Alcotest.(check int) "ten samples" 10 (Obs.Series.length s);
  Alcotest.(check (float 1e-9)) "last value" 10.0 ((Obs.Series.rows s).(9)).(0)

let test_run_series_content () =
  let r =
    Shard.Shard_sim.run
      (small_spec
         ~obs:(Obs.Config.make ~series:true ~sample_interval:2.0 ())
         ())
  in
  let o = Option.get r.Core.Simulator.obs in
  match (List.hd o.Obs.Run.reps).Obs.Run.series with
  | None -> Alcotest.fail "no series"
  | Some s ->
      Alcotest.(check bool) "samples recorded" true (Obs.Series.length s > 0);
      let names = Obs.Series.names s in
      (* the exact column order is part of the CSV artifact contract:
         downstream diffing tools key on it, so adding a gauge means
         extending this pin (at the end, please) *)
      Alcotest.(check (array string)) "pinned column order"
        [|
          "server_cpu_util";
          "disk_util";
          "net_util";
          "locks_held";
          "lock_waiters";
          "active_xacts";
          "ready_queue";
          "commit_rate";
          "abort_rate";
          "clients_down";
        |]
        names;
      (* every utilization sample lies in [0, 1] *)
      let j =
        let found = ref (-1) in
        Array.iteri (fun i n -> if n = "server_cpu_util" then found := i) names;
        !found
      in
      Array.iter
        (fun row ->
          if row.(j) < 0.0 || row.(j) > 1.0 then
            Alcotest.fail "cpu utilization out of [0,1]")
        (Obs.Series.rows s)

(* ------------------------------------------------------------------ *)
(* Channel independence                                                *)
(* ------------------------------------------------------------------ *)

(* [ccsim observe] records one run with the union of the chosen views'
   channels, so each artifact must not depend on which other channels
   were on: the same bytes as a run recording only its own view's. *)
let test_channel_independence () =
  let cells =
    [
      ("1 shard", small_spec ());
      ( "4 shards, faulty callback",
        {
          (small_spec ()) with
          Core.Simulator.algo = Core.Proto.Callback;
          n_shards = 4;
          fault = Fault.Plan.default ~seed:7;
        } );
    ]
  in
  List.iter
    (fun (name, spec) ->
      let record obs =
        Option.get
          (Shard.Shard_sim.run { spec with Core.Simulator.obs }).Core.Simulator.obs
      in
      let all =
        record
          (Obs.Config.make ~trace:true ~spans:true ~metrics:true ~causal:true
             ~series:true ~profile:true ())
      in
      let series o =
        String.concat ""
          (List.filter_map
             (fun (rp : Obs.Run.rep) -> Option.map Obs.Export.series_csv rp.series)
             o.Obs.Run.reps)
      in
      let prom o =
        Obs.Metrics.to_openmetrics (Option.get (Obs.Run.merged_metrics o))
      in
      List.iter
        (fun (artifact, obs, render) ->
          let alone = render (record obs) in
          Alcotest.(check bool) (name ^ ": " ^ artifact ^ " recorded") true
            (String.length alone > 0);
          Alcotest.(check string) (name ^ ": " ^ artifact) alone (render all))
        [
          ( "trace text",
            Obs.Config.trace_only,
            fun o -> Obs.Export.trace_text (Obs.Run.merged_trace o) );
          ( "span text",
            Obs.Config.make ~spans:true (),
            fun o -> Obs.Export.span_text (Obs.Run.merged_spans o) );
          ( "dag text",
            Obs.Config.causal,
            fun o -> Obs.Export.dag_text (Obs.Run.merged_causal o) );
          ("series csv", Obs.Config.make ~series:true ~profile:true (), series);
        ];
      Alcotest.(check string) (name ^ ": openmetrics")
        (prom (record Obs.Config.latency))
        (prom
           (record
              (Obs.Config.make ~trace:true ~spans:true ~metrics:true
                 ~series:true ~profile:true ()))))
    cells

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let test_series_csv_roundtrip () =
  let s =
    Obs.Series.create ~interval:0.1 ~start:3.25 ~names:[| "x"; "rate" |]
  in
  Obs.Series.record s [| 0.1; 1.0 /. 3.0 |];
  Obs.Series.record s [| -2.5e-17; 123456.789 |];
  let csv = Obs.Export.series_csv s in
  let s' = Obs.Export.series_of_csv csv in
  Alcotest.(check bool) "round-trips exactly" true (Obs.Series.equal s s');
  Alcotest.(check string) "stable second encode" csv
    (Obs.Export.series_csv s')

let test_perfetto_valid_json () =
  let r = Shard.Shard_sim.run (small_spec ~obs:Obs.Config.trace_only ()) in
  let o = Option.get r.Core.Simulator.obs in
  let json = Obs.Export.perfetto (Obs.Run.merged_trace o) in
  (match Obs.Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("perfetto JSON invalid: " ^ e));
  (* lock waits appear as duration events *)
  Alcotest.(check bool) "has instant events" true
    (let rec find i =
       i + 8 < String.length json
       && (String.sub json i 9 = {|"ph":"i",|} || find (i + 1))
     in
     find 0)

let test_validate_json_rejects () =
  List.iter
    (fun bad ->
      match Obs.Export.validate_json bad with
      | Ok () -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "[1 2]";
      "\"unterminated";
      "{\"a\":1} trailing";
      "nulll";
    ];
  List.iter
    (fun good ->
      match Obs.Export.validate_json good with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "rejected %S: %s" good e))
    [ "null"; "[]"; "{\"a\": [1, -2.5e3, true, \"s\\n\"]}"; " 42 " ]

let test_json_escape () =
  Alcotest.(check string) "quotes and control" {|a\"b\\c\nd|}
    (Obs.Export.json_escape "a\"b\\c\nd");
  let clean = "lock-wait p3 (X)" in
  Alcotest.(check bool) "nothing to escape: the argument itself" true
    (Obs.Export.json_escape clean == clean)

(* The two scanner modes, [validate_json] (no value built) and
   [parse_json], must accept the same inputs and reject the rest with the
   same error text.  Inputs are a small real Perfetto export, with spans
   and flow arrows, damaged by up to three truncations, byte replacements
   or inserted escapes (valid and invalid ones).  With QCHECK_LONG set,
   both properties below search twenty times as many inputs. *)
let small_export =
  lazy
    (let obs = Obs.Config.make ~trace:true ~spans:true ~causal:true () in
     let r = Shard.Shard_sim.run (small_spec ~obs ()) in
     let o = Option.get r.Core.Simulator.obs in
     let head k a = Array.sub a 0 (min k (Array.length a)) in
     Obs.Export.perfetto
       ~spans:(head 24 (Obs.Run.merged_spans o))
       ~flows:(head 24 (Obs.Run.merged_causal o))
       (head 16 (Obs.Run.merged_trace o)))

type damage = Cut of int | Set of int * char | Escape of int * string

let damage s = function
  | Cut i -> String.sub s 0 (i mod (String.length s + 1))
  | Set (_, _) when s = "" -> s
  | Set (i, c) ->
      let b = Bytes.of_string s in
      Bytes.set b (i mod String.length s) c;
      Bytes.to_string b
  | Escape (i, e) ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ e ^ String.sub s i (String.length s - i)

let show_damage = function
  | Cut i -> Printf.sprintf "Cut %d" i
  | Set (i, c) -> Printf.sprintf "Set (%d, %C)" i c
  | Escape (i, e) -> Printf.sprintf "Escape (%d, %S)" i e

(* bytes that matter to the grammar, or any byte *)
let json_byte =
  let special = "{}[],:\"\\ \n0-.eE+tfnu\000\001\031" in
  QCheck.Gen.(
    frequency
      [
        (3, oneofl (List.of_seq (String.to_seq special)));
        (1, map Char.chr (int_bound 255));
      ])

let damaged_export =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  let one =
    oneof
      [
        map (fun i -> Cut i) pos;
        map2 (fun i c -> Set (i, c)) pos json_byte;
        map2
          (fun i e -> Escape (i, e))
          pos
          (oneofl
             [
               {|\n|}; {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\u00e9|}; {|\u20AC|};
               {|\u001f|}; {|\x|}; {|\u12|}; {|\u00g0|}; "\\"; "\\\000";
             ]);
      ]
  in
  QCheck.make
    ~print:(fun ds -> String.concat "; " (List.map show_damage ds))
    (list_size (int_range 0 3) one)

let scanner_modes_agree =
  QCheck.Test.make ~name:"validate_json agrees with parse_json" ~count:500
    ~long_factor:20 damaged_export (fun ds ->
      let s = List.fold_left damage (Lazy.force small_export) ds in
      Obs.Export.validate_json s = Result.map ignore (Obs.Export.parse_json s))

(* Any byte string, escaped and quoted, parses back to itself. *)
let escape_round_trips =
  QCheck.Test.make ~name:"json_escape round-trips through parse_json"
    ~count:500 ~long_factor:20
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:json_byte (int_range 0 40)))
    (fun s ->
      Obs.Export.parse_json ("\"" ^ Obs.Export.json_escape s ^ "\"")
      = Ok (Obs.Export.Str s))

let suites =
  [
    ( "recorder",
      [
        case "basics" test_recorder_basics;
        case "ring keeps tail" test_recorder_ring_keeps_tail;
        case "wrap across chunks" test_recorder_wrap_large;
        case "sink dispatch and restore" test_sink_dispatch_and_restore;
      ] );
    ("ring-props", [ QCheck_alcotest.to_alcotest ring_keeps_last ]);
    ( "sink",
      [
        case "restored when the body raises" test_sink_restored_on_raise;
        case "one slot for all channels" test_sink_one_slot_for_all_channels;
        case "unobserved run keeps caller sink" test_run_keeps_caller_sink;
        case "wrapped channels reported" test_wrapped_channels_reported;
      ] );
    ( "traced-runs",
      [
        case "payload attached" test_traced_run_payload;
        case "off means none" test_obs_off_no_payload;
        case "pool workers traced" test_pool_runs_are_traced;
        case "identical at any -j" test_jobs_invariance;
        case "observability is pure" test_observability_is_pure;
        case "profile in payload" test_profile_in_payload;
        case "facility snapshots" test_facility_snapshots;
      ] );
    ( "series",
      [
        case "record and times" test_series_record_and_times;
        case "sampler process" test_sampler_process;
        case "run series content" test_run_series_content;
      ] );
    ( "channels",
      [ case "channel independence" test_channel_independence ] );
    ( "export",
      [
        case "series csv round-trip" test_series_csv_roundtrip;
        case "perfetto is valid json" test_perfetto_valid_json;
        case "validator rejects malformed" test_validate_json_rejects;
        case "json escaping" test_json_escape;
      ] );
    ( "json-props",
      List.map QCheck_alcotest.to_alcotest
        [ scanner_modes_agree; escape_round_trips ] );
  ]

let () = Alcotest.run "obs" suites
