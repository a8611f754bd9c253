(* The clocks, the benchmark's own spans, one simulation with its
   correctness checks, and the passes a workload run is made of: the live
   heap, set-up, timed rounds, the audit pass, the traced pass and the
   observability overheads. *)

(* ------------------------------------------------------------------ *)
(* Clock and spans                                                     *)
(* ------------------------------------------------------------------ *)

let now = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* Processor time of this process.  The simulator runs on one thread, so
   this equals wall time, except that it leaves out time the hypervisor
   gave to other guests (steal); cells and set-up runs are timed with it. *)
let cpu_now = Sys.time

(* Start a timed run on an empty heap, so that it pays for collecting its
   own garbage and not for what the previous run left behind. *)
let settle () = Gc.full_major ()

(* Words allocated so far by this domain, minor and major heap together. *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type span = { sp_name : string; sp_start : int64; sp_end : int64 }

let spans = ref []

(* One span per call the benchmark makes into a layer. *)
let span name f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      spans := { sp_name = name; sp_start = t0; sp_end = now () } :: !spans)
    f

(* Chrome/Perfetto trace_event JSON: one complete ("X") event per span,
   all on one track, so nesting shows by containment. *)
let perfetto_json () =
  let all = List.sort (fun a b -> Int64.compare a.sp_start b.sp_start) !spans in
  let origin = match all with s :: _ -> s.sp_start | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          {|{"name":"%s","cat":"perfbench","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1}|}
          (Obs.Export.json_escape s.sp_name)
          (us s.sp_start)
          (us s.sp_end -. us s.sp_start))
      all
  in
  Printf.sprintf {|{"traceEvents":[%s],"displayTimeUnit":"ms"}|}
    (String.concat ",\n" events)

(* ------------------------------------------------------------------ *)
(* Failure tally                                                       *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failures = ref []

(* Cell digests from a cell's first run; every later run must match. *)
let digests : (string, int * int * int * int64 * int) Hashtbl.t = Hashtbl.create 64

let reset () =
  attempted := 0;
  failures := [];
  Hashtbl.reset digests;
  spans := []

let record label errors =
  incr attempted;
  if errors <> [] then
    failures := Printf.sprintf "%s: %s" label (String.concat "; " errors) :: !failures

let raised e = Printf.sprintf "raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* One simulation                                                      *)
(* ------------------------------------------------------------------ *)

let simulate ?audit ?inspect spec = Shard.Shard_sim.run ?audit ?inspect spec

(* Commits the run executed, warmup included: the work a round does. *)
let total_commits (spec : Core.Simulator.spec) (r : Core.Simulator.result) =
  spec.Core.Simulator.warmup_commits + r.Core.Simulator.commits

let liveness_errors (spec : Core.Simulator.spec) (r : Core.Simulator.result) =
  if r.Core.Simulator.commits < spec.Core.Simulator.measured_commits then
    [
      Printf.sprintf "stopped at %d of %d measured commits (simulated t=%g)"
        r.Core.Simulator.commits spec.Core.Simulator.measured_commits
        r.Core.Simulator.sim_time;
    ]
  else []

let finite_errors (r : Core.Simulator.result) =
  List.filter_map
    (fun (name, v) ->
      if Float.is_finite v then None else Some (name ^ " is not finite"))
    Core.Simulator.
      [
        ("mean_response", r.mean_response);
        ("throughput", r.throughput);
        ("hit_ratio", r.hit_ratio);
        ("msgs_per_commit", r.msgs_per_commit);
        ("sim_time", r.sim_time);
      ]

(* The in-memory equivalent of `ccsim metrics --check` and
   `ccsim causal --check --perfetto`: span well-formedness, the latency
   decomposition, DAG validation, the Perfetto export and the OpenMetrics
   exposition. *)
let analyses (o : Obs.Run.t) =
  let errs = ref [] in
  let err s = errs := s :: !errs in
  List.iter
    (fun rep ->
      let ck =
        span "Span.validate" (fun () ->
            Obs.Span.validate ~dropped:rep.Obs.Run.spans_dropped
              rep.Obs.Run.spans)
      in
      if not (Obs.Span.check_ok ck) then err "span record is malformed")
    o.Obs.Run.reps;
  let spans_ = Obs.Run.merged_spans o in
  let cp =
    span "Critical_path.analyze" (fun () -> Obs.Critical_path.analyze spans_)
  in
  if not (Obs.Critical_path.reconciles cp) then
    err "latency phases do not reconcile";
  let mc = Obs.Run.merged_causal o in
  let an =
    span "Causal.analyze" (fun () ->
        Obs.Causal.analyze ~dropped:(Obs.Run.causal_dropped o) mc)
  in
  if not (Obs.Causal.check_ok an.Obs.Causal.an_check) then
    err "causal DAGs are malformed";
  let js =
    span "Export.perfetto" (fun () ->
        Obs.Export.perfetto ~spans:spans_ ~flows:mc (Obs.Run.merged_trace o))
  in
  (match span "Export.validate_json" (fun () -> Obs.Export.validate_json js) with
  | Ok () -> ()
  | Error e -> err ("perfetto JSON is invalid: " ^ e));
  (match Obs.Run.merged_metrics o with
  | Some m ->
      ignore
        (span "Metrics.to_openmetrics" (fun () -> Obs.Metrics.to_openmetrics m))
  | None -> err "no metrics registry");
  List.rev !errs

(* Run one cell the way its workload does, with every check that needs
   nothing beyond this run. *)
let run_cell (kind : Workloads.kind) (c : Workloads.cell) =
  let spec = c.Workloads.spec in
  span c.Workloads.label (fun () ->
      match kind with
      | Workloads.Audited ->
          let v = Experiments.Chaos.audit_run spec in
          let errors =
            v.Experiments.Chaos.v_errors
            @ Option.fold ~none:[] ~some:finite_errors v.Experiments.Chaos.v_result
          in
          (v.Experiments.Chaos.v_result, errors)
      | Workloads.Plain | Workloads.Observed -> (
          match simulate spec with
          | exception e -> (None, [ raised e ])
          | r ->
              let checks = liveness_errors spec r @ finite_errors r in
              let analysed =
                match (kind, r.Core.Simulator.obs) with
                | Workloads.Observed, Some o -> analyses o
                | Workloads.Observed, None -> [ "no observability payload" ]
                | _ -> []
              in
              (Some r, checks @ analysed)))

(* What two runs of one cell must agree on. *)
let digest (r : Core.Simulator.result) =
  Core.Simulator.
    (r.commits, r.aborts, r.events, Int64.bits_of_float r.sim_time, r.messages)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* The memory a cell needs: the live major heap at the end of its run,
   with the whole simulation still reachable, after a full collection.
   Exact and repeatable at a fixed seed, unlike the heap's high-water
   mark, which moves with the timing of collections.  Returns the mean
   over the cells, in words: the mean moves less from seed to seed than
   the largest. *)
let live_heap_pass cells =
  List.fold_left
    (fun acc (c : Workloads.cell) ->
      let spec = c.Workloads.spec in
      let live = ref 0 in
      let inspect _ _ =
        Gc.full_major ();
        live := (Gc.stat ()).Gc.live_words
      in
      let label = "memory " ^ c.Workloads.label in
      (match span label (fun () -> simulate ~inspect spec) with
      | exception e -> record label [ raised e ]
      | r -> record label (liveness_errors spec r));
      acc +. float_of_int !live)
    0.0 cells
  /. float_of_int (List.length cells)

(* Interference from other work on a shared machine only ever adds time,
   so the least time a cell took over a run's repetitions is the
   estimate of its own cost; a pass costs the sum of those minima over
   the cell list.  [reps] holds one list of per-cell times per
   repetition, cells in the same order. *)
let sum_of_minima reps =
  match reps with
  | [] -> nan
  | first :: rest ->
      List.fold_left (List.map2 Float.min) first rest
      |> List.fold_left ( +. ) 0.0

(* Set-up cost: every cell to its first commit (no warmup) — the assembly
   and ramp-up every `ccsim run` pays.  One repetition; returns the
   per-cell times. *)
let setup_once cells =
  List.map
    (fun (c : Workloads.cell) ->
      let spec =
        { c.Workloads.spec with Core.Simulator.warmup_commits = 0; measured_commits = 1 }
      in
      let label = "setup " ^ c.Workloads.label in
      settle ();
      let t0 = cpu_now () in
      let errors =
        span label (fun () ->
            match simulate spec with
            | exception e -> [ raised e ]
            | r -> liveness_errors spec r)
      in
      let dt = cpu_now () -. t0 in
      record label errors;
      dt)
    cells

(* Set-up repetitions: at least [min_reps], and more while they fit in
   [seconds]. *)
let setup_pass cells ~min_reps ~seconds =
  let t0 = now () in
  let rec go acc n =
    if n >= min_reps && since t0 >= seconds then acc
    else go (setup_once cells :: acc) (n + 1)
  in
  sum_of_minima (go [] 0)

(* One timed run of a cell. *)
type sample = {
  cpu : float;  (** processor seconds, see [cpu_now] *)
  commits : int;  (** warmup included *)
  events : int;
  words : float;  (** allocated *)
  promoted : float;
  major_gcs : int;
}

let timed_cell kind (c : Workloads.cell) =
  settle ();
  let g0 = Gc.quick_stat () in
  let w0 = allocated () in
  let c0 = cpu_now () in
  let r, errors = run_cell kind c in
  let cpu = cpu_now () -. c0 in
  let w1 = allocated () in
  let g1 = Gc.quick_stat () in
  let determinism =
    match r with
    | None -> []
    | Some r -> (
        let d = digest r in
        match Hashtbl.find_opt digests c.Workloads.label with
        | None ->
            Hashtbl.add digests c.Workloads.label d;
            []
        | Some d0 when d0 = d -> []
        | Some _ -> [ "re-run differs from the first run" ])
  in
  record c.Workloads.label (errors @ determinism);
  let commits, events =
    match r with
    | Some r -> (total_commits c.Workloads.spec r, r.Core.Simulator.events)
    | None -> (0, 0)
  in
  {
    cpu;
    commits;
    events;
    words = w1 -. w0;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Rounds over the whole cell list until [seconds] have passed; one
   sample list per round, cells in order. *)
let timed_rounds kind cells ~seconds ~min_rounds =
  let t0 = now () in
  let rec go acc n =
    if n >= min_rounds && since t0 >= seconds then List.rev acc
    else go (List.map (timed_cell kind) cells :: acc) (n + 1)
  in
  go [] 0

(* Commits of one pass over the cell list per second of its estimated
   cost (see [sum_of_minima]). *)
let commits_per_s rounds =
  match rounds with
  | [] -> nan
  | first :: _ ->
      let commits = List.fold_left (fun a s -> a + s.commits) 0 first in
      float_of_int commits
      /. sum_of_minima (List.map (List.map (fun s -> s.cpu)) rounds)

(* Every cell once through the chaos audit at a quarter of its commit
   count: serializability, lock-table invariants, cache coherence,
   liveness, and durability on fault plans. *)
let audit_pass cells =
  List.iter
    (fun (c : Workloads.cell) ->
      let s = c.Workloads.spec in
      let spec =
        {
          s with
          Core.Simulator.warmup_commits = s.Core.Simulator.warmup_commits / 4;
          measured_commits = max 1 (s.Core.Simulator.measured_commits / 4);
          obs = Obs.Config.off;
        }
      in
      let v =
        span ("audit " ^ c.Workloads.label) (fun () ->
            Experiments.Chaos.audit_run spec)
      in
      record ("audit " ^ c.Workloads.label) v.Experiments.Chaos.v_errors)
    cells

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

type traced = {
  mutable t_cpu : float;
  mutable t_commits : int;  (** warmup included: trace and profile span it *)
  mutable t_measured : int;
  mutable t_attempts : int;  (** measured commits + aborts *)
  mutable t_events : int;
  mutable t_holds : int;
  mutable t_wakes : int;
  mutable t_heap_hwm : int;
  mutable t_lock_waits : int;
  mutable t_deadlocks : int;
  mutable t_disk_reads : int;
  mutable t_msgs : int;
  mutable t_bytes : int;
  mutable t_log_pages : int;
  mutable t_hit_sum : float;  (** hit ratio weighted by measured commits *)
  mutable t_callbacks : int;
  mutable t_retries : int;
  mutable t_prepares : int;
  mutable t_xshard : int;
  mutable t_outcome_queries : int;
  mutable t_injected : int;
  mutable t_records : int;
  mutable t_dropped : int;
  mutable t_history_s : float;
  mutable t_analyze_s : float;
  mutable t_kinds : (int * int) list;  (** (bytes per message, messages) *)
  mutable t_commit_sizes : int list;  (** updates per traced commit *)
}

let traced_config (o : Obs.Config.t) =
  { o with Obs.Config.profile = true; trace = true; causal = true }

(* One extra run of every cell with profiling, the event trace and the
   causal record on, plus the serializability history, for the counts
   the timed rounds cannot see. *)
let traced_pass cells =
  let t =
    {
      t_cpu = 0.0; t_commits = 0; t_measured = 0; t_attempts = 0; t_events = 0;
      t_holds = 0; t_wakes = 0; t_heap_hwm = 0; t_lock_waits = 0;
      t_deadlocks = 0; t_disk_reads = 0; t_msgs = 0; t_bytes = 0;
      t_log_pages = 0; t_hit_sum = 0.0; t_callbacks = 0; t_retries = 0;
      t_prepares = 0; t_xshard = 0; t_outcome_queries = 0; t_injected = 0;
      t_records = 0; t_dropped = 0; t_history_s = 0.0; t_analyze_s = 0.0;
      t_kinds = []; t_commit_sizes = [];
    }
  in
  List.iter
    (fun (c : Workloads.cell) ->
      let spec =
        {
          c.Workloads.spec with
          Core.Simulator.obs = traced_config c.Workloads.spec.Core.Simulator.obs;
        }
      in
      let history = Cc.History.create () in
      let log_pages = ref 0 in
      let inspect servers _ =
        log_pages :=
          Array.fold_left
            (fun a s ->
              match Core.Server.log_manager s with
              | Some l -> a + Storage.Log_manager.log_pages_written l
              | None -> a)
            0 servers
      in
      let label = "traced " ^ c.Workloads.label in
      let t0 = cpu_now () in
      match span label (fun () -> simulate ~audit:history ~inspect spec) with
      | exception e -> record label [ raised e ]
      | r ->
          t.t_cpu <- t.t_cpu +. (cpu_now () -. t0);
          let errors = ref (liveness_errors spec r) in
          (match
             span ("History.check " ^ c.Workloads.label) (fun () ->
                 let t1 = cpu_now () in
                 let v = Cc.History.check history in
                 t.t_history_s <- t.t_history_s +. (cpu_now () -. t1);
                 v)
           with
          | Cc.History.Serializable -> ()
          | Cc.History.Cycle _ -> errors := "history is not serializable" :: !errors);
          let open Core.Simulator in
          t.t_commits <- t.t_commits + total_commits spec r;
          t.t_measured <- t.t_measured + r.commits;
          t.t_attempts <- t.t_attempts + r.commits + r.aborts;
          t.t_log_pages <- t.t_log_pages + !log_pages;
          t.t_hit_sum <- t.t_hit_sum +. (r.hit_ratio *. float_of_int r.commits);
          t.t_callbacks <- t.t_callbacks + r.callbacks_sent;
          t.t_retries <- t.t_retries + r.retries;
          t.t_prepares <- t.t_prepares + r.prepares;
          t.t_xshard <- t.t_xshard + r.xshard_commits;
          t.t_outcome_queries <- t.t_outcome_queries + r.outcome_queries;
          t.t_injected <-
            t.t_injected + r.msgs_dropped + r.msgs_delayed + r.msgs_duplicated
            + r.crashes + r.server_crashes;
          (match r.obs with
          | None -> errors := "no observability payload" :: !errors
          | Some o ->
              List.iter
                (fun (rep : Obs.Run.rep) ->
                  (match rep.Obs.Run.profile with
                  | Some p ->
                      t.t_events <- t.t_events + p.Sim.Engine.pr_events;
                      t.t_holds <- t.t_holds + p.Sim.Engine.pr_holds;
                      t.t_wakes <- t.t_wakes + p.Sim.Engine.pr_wakes;
                      t.t_heap_hwm <- max t.t_heap_hwm p.Sim.Engine.pr_heap_hwm
                  | None -> ());
                  Array.iter
                    (fun (e : Obs.Recorder.entry) ->
                      match e.Obs.Recorder.ev with
                      | Obs.Event.Lock_wait _ -> t.t_lock_waits <- t.t_lock_waits + 1
                      | Obs.Event.Deadlock _ -> t.t_deadlocks <- t.t_deadlocks + 1
                      | Obs.Event.Disk_read _ -> t.t_disk_reads <- t.t_disk_reads + 1
                      | Obs.Event.Commit { n_updates; _ } ->
                          t.t_commit_sizes <- n_updates :: t.t_commit_sizes
                      | _ -> ())
                    rep.Obs.Run.trace;
                  t.t_records <-
                    t.t_records + Array.length rep.Obs.Run.trace
                    + Array.length rep.Obs.Run.spans
                    + Array.length rep.Obs.Run.causal;
                  t.t_dropped <-
                    t.t_dropped + rep.Obs.Run.trace_dropped
                    + rep.Obs.Run.spans_dropped + rep.Obs.Run.causal_dropped)
                o.Obs.Run.reps;
              let t1 = cpu_now () in
              let mc = Obs.Run.merged_causal o in
              let an =
                span ("Causal.analyze " ^ c.Workloads.label) (fun () ->
                    Obs.Causal.analyze ~dropped:(Obs.Run.causal_dropped o) mc)
              in
              if not (Obs.Causal.check_ok an.Obs.Causal.an_check) then
                errors := "causal DAGs are malformed" :: !errors;
              let amps =
                span ("Causal.amplification " ^ c.Workloads.label) (fun () ->
                    Obs.Causal.amplification mc)
              in
              ignore
                (span ("Export.perfetto " ^ c.Workloads.label) (fun () ->
                     Obs.Export.perfetto ~flows:mc (Obs.Run.merged_trace o)));
              t.t_analyze_s <- t.t_analyze_s +. (cpu_now () -. t1);
              List.iter
                (fun (a : Obs.Causal.amp) ->
                  t.t_msgs <- t.t_msgs + a.Obs.Causal.am_msgs;
                  t.t_bytes <- t.t_bytes + a.Obs.Causal.am_bytes;
                  if a.Obs.Causal.am_msgs > 0 then
                    t.t_kinds <-
                      (a.Obs.Causal.am_bytes / a.Obs.Causal.am_msgs, a.Obs.Causal.am_msgs)
                      :: t.t_kinds)
                amps);
          record label (List.rev !errors))
    cells;
  t

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

let channels =
  [
    ("trace", Obs.Config.make ~trace:true ());
    ("spans", Obs.Config.make ~spans:true ());
    ("metrics", Obs.Config.make ~metrics:true ());
    ("causal", Obs.Config.make ~causal:true ());
    ("series", Obs.Config.make ~series:true ());
    ("profile", Obs.Config.make ~profile:true ());
  ]

(* Wall-time ratio of the workload's first cell with one channel on
   against all off, each configuration's least time over repetitions (see
   [sum_of_minima]).  Configurations are interleaved within each
   repetition so drift hits every one alike; repetitions continue while
   they fit in [budget_s], up to 25. *)
let obs_overheads (c : Workloads.cell) ~budget_s =
  let configs = Obs.Config.off :: List.map snd channels in
  let label = "overhead " ^ c.Workloads.label in
  let time_one obs =
    let spec = { c.Workloads.spec with Core.Simulator.obs } in
    settle ();
    let t0 = cpu_now () in
    (match span label (fun () -> simulate spec) with
    | exception e -> record label [ raised e ]
    | r -> record label (liveness_errors spec r));
    cpu_now () -. t0
  in
  let t0 = now () in
  let rec go best n =
    if n > 0 && (n >= 25 || since t0 >= budget_s) then best
    else go (List.map2 Float.min best (List.map time_one configs)) (n + 1)
  in
  match go (List.map (fun _ -> infinity) configs) 0 with
  | off :: on -> List.map2 (fun (name, _) t -> (name, t /. off)) channels on
  | [] -> []
