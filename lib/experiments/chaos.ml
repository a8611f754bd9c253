(* Seeded chaos-audit harness: run one simulation under a deterministic
   fault plan and audit the whole run — serializability of the committed
   history, end-state invariants, liveness, and crash/recovery
   bookkeeping.  Everything is a pure function of the spec, so sweeps
   parallelize over [Sim.Pool] with bit-identical verdicts at any job
   count. *)

type verdict = {
  v_algo : Core.Proto.algorithm;
  v_plan : Fault.Plan.t;
  v_result : Core.Simulator.result option;  (* [None] if the run raised *)
  v_errors : string list;  (* empty means the run passed every audit *)
}

let ok v = v.v_errors = []

let default_algos =
  [
    Core.Proto.Two_phase Core.Proto.Inter;
    Core.Proto.Certification Core.Proto.Inter;
    Core.Proto.Callback;
    Core.Proto.No_wait { notify = None };
    Core.Proto.No_wait { notify = Some Core.Proto.Push };
  ]

(* Chaos runs measure availability, not steady state: no warmup reset, so
   crash/recovery counters cover the whole run and the end-state
   bookkeeping below is exact.  The simulation seed is the plan seed —
   one integer reproduces the run. *)
let spec ?(n_clients = 8) ?(n_shards = 1) ?(measured_commits = 400)
    ?(max_sim_time = 20_000.0) ?(hot = false) ~fault algo =
  {
    (* [hot] shrinks the database to a contention furnace — the workload
       for proving that a broken protocol is actually caught *)
    Core.Simulator.cfg = Core.Sys_params.table5 ~n_clients ();
    db_params =
      (if hot then Db.Db_params.uniform ~n_classes:2 ~pages_per_class:25 ()
       else Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ());
    xact_params =
      (if hot then
         Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.9 ()
       else Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 ());
    mix = None;
    algo;
    n_shards;
    seed = fault.Fault.Plan.seed;
    warmup_commits = 0;
    measured_commits;
    max_sim_time;
    fault;
    obs = Obs.Config.off;
  }

let audit_run (sp : Core.Simulator.spec) =
  let audit = Cc.History.create () in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let clients_down = ref 0 in
  let srv = sp.Core.Simulator.fault.Fault.Plan.server_crash_mean > 0.0 in
  let n_shards = sp.Core.Simulator.n_shards in
  (* the directory is a pure function of the database shape, so the audit
     recomputes the same map the routers used *)
  let map =
    Shard.Shard_map.create
      (Db.Database.create sp.Core.Simulator.db_params)
      ~n_shards
  in
  let shards_down_at_end = ref 0 in
  let redo_logs = Array.make n_shards None in
  let inspect servers clients =
    shards_down_at_end := 0;
    Array.iteri
      (fun k server ->
        if Core.Server.server_down server then incr shards_down_at_end;
        redo_logs.(k) <- Core.Server.log_manager server;
        (* per-shard lock-table structural invariants *)
        (try Cc.Lock_table.check_invariants (Core.Server.locks server)
         with Failure m -> err "shard %d lock table: %s" k m);
        (* no committed update lost: every page version the shard's
           durable log proves committed must be present (or superseded)
           in that shard's recovered version table.  Skipped while the
           shard is down — its volatile table is empty until the next
           replay. *)
        match redo_logs.(k) with
        | Some log when srv && not (Core.Server.server_down server) ->
            let vt = Core.Server.versions server in
            List.iter
              (fun (page, v) ->
                let cur = Cc.Version_table.current vt page in
                if cur < v then
                  err
                    "durability: committed p%d@v%d lost (shard %d table at \
                     v%d)"
                    page v k cur)
              (Storage.Log_manager.committed_versions log)
        | Some _ | None -> ())
      servers;
    (* cache coherence: no client may cache a version the page's owning
       shard has not installed yet.  Under server-crash plans a client
       can legitimately cache an orphaned pre-crash version (bumped but
       never durable, so absent from the replayed table) — there the
       guarantee is carried by the durability checks against the redo
       logs instead. *)
    if not srv then
      Array.iteri
        (fun cid c ->
          List.iter
            (fun (page, v) ->
              let owner = Shard.Shard_map.shard_of_page map page in
              let vt = Core.Server.versions servers.(owner) in
              let cur = Cc.Version_table.current vt page in
              if v > cur then
                err "client %d caches p%d@v%d ahead of shard %d v%d" cid page
                  v owner cur)
            (Core.Client.cached_versions c))
        clients;
    clients_down :=
      Array.fold_left
        (fun a c -> if Core.Client.crashed c then a + 1 else a)
        0 clients
  in
  match Shard.Shard_sim.run ~audit ~inspect sp with
  | exception e ->
      {
        v_algo = sp.Core.Simulator.algo;
        v_plan = sp.Core.Simulator.fault;
        v_result = None;
        v_errors = [ Printf.sprintf "run raised: %s" (Printexc.to_string e) ];
      }
  | r ->
      (match Cc.History.check audit with
      | Cc.History.Serializable -> ()
      | Cc.History.Cycle xids ->
          err "non-serializable history: cycle through xids [%s]"
            (String.concat "; " (List.map string_of_int xids)));
      if r.Core.Simulator.commits < sp.Core.Simulator.measured_commits then
        err "stuck: %d of %d commits before t=%g" r.Core.Simulator.commits
          sp.Core.Simulator.measured_commits sp.Core.Simulator.max_sim_time;
      (* duplicate-injection bookkeeping: a plan without duplication must
         count zero duplicated messages, and one with it must actually
         duplicate (the no-dup probability over thousands of messages is
         negligible) — an inert injector would silently void every
         at-least-once delivery path this audit exercises.  Only a
         transmitted message can be duplicated, so dropped ones do not
         count. *)
      let dup_prob = sp.Core.Simulator.fault.Fault.Plan.dup_prob in
      let sent = r.Core.Simulator.messages - r.Core.Simulator.msgs_dropped in
      if dup_prob = 0.0 && r.Core.Simulator.msgs_duplicated > 0 then
        err "duplication: %d messages duplicated under dup_prob = 0"
          r.Core.Simulator.msgs_duplicated;
      if dup_prob > 0.0 && sent >= 2_000 && r.Core.Simulator.msgs_duplicated = 0
      then
        err "duplication: dup_prob = %g yet none of %d transmitted messages \
             duplicated"
          dup_prob sent;
      (* every crash is either recovered or still inside its restart
         delay when the simulation stopped *)
      let outstanding =
        r.Core.Simulator.crashes - r.Core.Simulator.recoveries
      in
      if outstanding <> !clients_down then
        err "crash bookkeeping: %d crashes - %d recoveries = %d but %d \
             clients down at end"
          r.Core.Simulator.crashes r.Core.Simulator.recoveries outstanding
          !clients_down;
      if srv then begin
        (* shard crash bookkeeping: the counters aggregate over shards,
           so crashes - recoveries = shards still inside a restart delay *)
        let s_out =
          r.Core.Simulator.server_crashes - r.Core.Simulator.server_recoveries
        in
        if s_out <> !shards_down_at_end then
          err
            "server crash bookkeeping: %d crashes - %d recoveries but %d \
             shard(s) down at end"
            r.Core.Simulator.server_crashes r.Core.Simulator.server_recoveries
            !shards_down_at_end;
        (* the durability audit proper: walk every acknowledged commit in
           the history against the durable redo logs, each write checked
           on the shard that owns its page *)
        if Array.for_all Option.is_none redo_logs then
          err "durability: server-crash plan ran without a redo log"
        else begin
          let log_of_page p =
            redo_logs.(Shard.Shard_map.shard_of_page map p)
          in
          let pair_set = Hashtbl.create 1024 in
          Array.iter
            (function
              | Some log ->
                  List.iter
                    (fun pv -> Hashtbl.replace pair_set pv ())
                    (Storage.Log_manager.durable_committed_pairs log)
              | None -> ())
            redo_logs;
          List.iter
            (fun (cr : Cc.History.commit_record) ->
              (* no acknowledged update may be lost: the client saw ok,
                 so every participant's slice of the commit is durable *)
              List.iter
                (fun (p, v) ->
                  match log_of_page p with
                  | None -> err "durability: page %d owned by a logless shard" p
                  | Some log -> (
                      match
                        Storage.Log_manager.durable_commit_updates log
                          ~xid:cr.Cc.History.xid
                      with
                      | None ->
                          err
                            "durability: acknowledged commit x%d has no \
                             durable commit record on shard %d"
                            cr.Cc.History.xid
                            (Shard.Shard_map.shard_of_page map p)
                      | Some ups ->
                          if not (List.mem (p, v) ups) then
                            err
                              "durability: acknowledged write p%d@v%d of \
                               x%d missing from durable log"
                              p v cr.Cc.History.xid))
                cr.Cc.History.writes;
              (* no uncommitted update may be visible: every version a
                 committed transaction read was durably committed by its
                 writer (group commit guarantees the writer's records
                 were forced no later than this reader's) *)
              List.iter
                (fun (p, v) ->
                  if v > 0 && not (Hashtbl.mem pair_set (p, v)) then
                    err
                      "durability: x%d committed after reading \
                       uncommitted p%d@v%d"
                      cr.Cc.History.xid p v)
                cr.Cc.History.reads)
            (Cc.History.commits audit)
        end;
        (* cross-shard atomicity: presumed abort means an aborted
           transaction may be absent from every log, but no shard may
           durably commit a transaction another shard durably aborted *)
        if n_shards > 1 then begin
          let outcomes = Hashtbl.create 256 in
          Array.iteri
            (fun k -> function
              | Some log ->
                  List.iter
                    (fun (xid, committed) ->
                      let prev =
                        Option.value
                          (Hashtbl.find_opt outcomes xid)
                          ~default:[]
                      in
                      Hashtbl.replace outcomes xid ((committed, k) :: prev))
                    (Storage.Log_manager.durable_outcomes log)
              | None -> ())
            redo_logs;
          Hashtbl.iter
            (fun xid l ->
              let shards_where b =
                List.filter_map
                  (fun (c, k) -> if c = b then Some (string_of_int k) else None)
                  l
              in
              let committed = shards_where true
              and aborted = shards_where false in
              if committed <> [] && aborted <> [] then
                err
                  "atomicity: x%d durably committed on shard(s) [%s] but \
                   durably aborted on [%s]"
                  xid
                  (String.concat ";" committed)
                  (String.concat ";" aborted))
            outcomes
        end
      end;
      {
        v_algo = sp.Core.Simulator.algo;
        v_plan = sp.Core.Simulator.fault;
        v_result = Some r;
        v_errors = List.rev !errors;
      }

(* Greedy plan shrinking: while some simpler candidate plan still fails
   the audit, descend into it.  The returned plan is locally minimal —
   every further simplification passes. *)
let shrink ?(max_steps = 32) (sp : Core.Simulator.spec) =
  let failing p =
    not (ok (audit_run { sp with Core.Simulator.fault = p }))
  in
  let rec go steps plan =
    if steps = 0 then plan
    else
      match List.find_opt failing (Fault.Plan.shrink_candidates plan) with
      | Some simpler -> go (steps - 1) simpler
      | None -> plan
  in
  go max_steps sp.Core.Simulator.fault

(* Re-run a failing spec with a sink installed in this domain and dump
   the merged trace.  The sink is installed directly (not via the spec's
   [obs] config) so a run that raises mid-flight still yields its partial
   trace; each ring keeps the LAST [limit] entries — the tail that
   actually led up to the failure. *)
let write_repro_trace ?(limit = 200_000) ~file (sp : Core.Simulator.spec) =
  let sink =
    Obs.Sink.of_config
      (Obs.Config.make ~trace:true ~spans:true ~metrics:true ~causal:true
         ~limit ())
  in
  Obs.Sink.with_ sink (fun () ->
      try ignore (Shard.Shard_sim.run sp) with _ -> ());
  let tagged entries b = Array.map (fun e -> (0, e)) (entries (Option.get b)) in
  let trace = tagged Obs.Recorder.entries sink.Obs.Sink.trace in
  Obs.Export.write_file file (Obs.Export.trace_text trace);
  (* the snapshot rides along: what each phase was doing, the counter
     state, and the causal DAG of every message, at the moment the audit
     failure fired *)
  let base = Filename.remove_extension file in
  let spans = tagged Obs.Span.entries sink.Obs.Sink.spans in
  Obs.Export.write_file (base ^ ".spans") (Obs.Export.span_text spans);
  Obs.Export.write_file (base ^ ".metrics")
    (Obs.Metrics.to_openmetrics (Option.get sink.Obs.Sink.metrics));
  Obs.Export.write_file (base ^ ".dag")
    (Obs.Export.dag_text (tagged Obs.Causal.entries sink.Obs.Sink.causal));
  (Array.length trace, Array.length spans)

let sweep ?(jobs = 1) specs =
  if jobs > 1 then Sim.Pool.map ~jobs audit_run specs
  else List.map audit_run specs

let pp_verdict fmt v =
  let name = Core.Proto.algorithm_name v.v_algo in
  match v.v_errors with
  | [] ->
      let r = Option.get v.v_result in
      Format.fprintf fmt
        "ok   %-14s seed=%-6d commits=%d aborts=%d retries=%d crashes=%d \
         recovered=%d dropped=%d"
        name v.v_plan.Fault.Plan.seed r.Core.Simulator.commits
        r.Core.Simulator.aborts r.Core.Simulator.retries
        r.Core.Simulator.crashes r.Core.Simulator.recoveries
        r.Core.Simulator.msgs_dropped;
      if r.Core.Simulator.server_crashes > 0 then
        Format.fprintf fmt " srv_crashes=%d ckpts=%d down=%.1fs"
          r.Core.Simulator.server_crashes r.Core.Simulator.checkpoints
          r.Core.Simulator.server_downtime
  | errs ->
      Format.fprintf fmt "FAIL %-14s seed=%-6d plan={%s}" name
        v.v_plan.Fault.Plan.seed
        (Fault.Plan.to_string v.v_plan);
      List.iter (fun e -> Format.fprintf fmt "@\n       - %s" e) errs
