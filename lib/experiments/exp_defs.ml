type run_opts = {
  warmup : int;
  measured : int;
  reps : int;
  seed : int;
  max_sim_time : float;
}

let default_opts =
  { warmup = 200; measured = 1500; reps = 1; seed = 42; max_sim_time = 100_000.0 }

let quick_opts =
  { warmup = 100; measured = 600; reps = 1; seed = 42; max_sim_time = 100_000.0 }

type metric = Response_time | Throughput

type series = { label : string; points : (float * Core.Simulator.result) list }

type figure = {
  fig_id : string;
  title : string;
  xlabel : string;
  metric : metric;
  series : series list;
}

let metric_value m (r : Core.Simulator.result) =
  match m with
  | Response_time -> r.Core.Simulator.mean_response
  | Throughput -> r.Core.Simulator.throughput

(* Per-replication values, in seed order (a singleton for an unreplicated
   run, [[||]] for a placeholder). *)
let metric_reps m (r : Core.Simulator.result) =
  match m with
  | Response_time -> r.Core.Simulator.rep_mean_responses
  | Throughput -> r.Core.Simulator.rep_throughputs

let metric_ci ?confidence m r =
  Obs.Run_stats.mean_ci ?confidence (metric_reps m r)

type runner = {
  opts : run_opts;
  jobs : int;
  cache : (string, Core.Simulator.result) Hashtbl.t;
  mutable collecting : bool;
  mutable pending : (string * Core.Simulator.spec) list;  (* newest first *)
  pending_keys : (string, unit) Hashtbl.t;
  mutable executed : int;
  mutable short : Core.Simulator.result list;  (* newest first *)
}

let make_runner ?(jobs = 1) opts =
  {
    opts;
    jobs = max 1 jobs;
    cache = Hashtbl.create 64;
    collecting = false;
    pending = [];
    pending_keys = Hashtbl.create 64;
    executed = 0;
    short = [];
  }

let jobs t = t.jobs

(* Specs are keyed by a digest of the whole (normalized) spec value, so two
   figures asking for the same simulation share one run and — unlike the
   previous hand-enumerated format string, which silently omitted fields
   like n_data_disks, client_mips, page_size, and control_msg_bytes — any
   field added to the spec is part of the key automatically.  No_sharing
   makes the bytes depend only on the structure, never on physical
   sharing within the value. *)
let key_of_spec (s : Core.Simulator.spec) =
  Digest.to_hex (Digest.string (Marshal.to_string s [ Marshal.No_sharing ]))

let normalize t spec =
  {
    spec with
    Core.Simulator.seed = t.opts.seed;
    warmup_commits = t.opts.warmup;
    measured_commits = t.opts.measured;
    max_sim_time = t.opts.max_sim_time;
  }

(* What [run] returns while collecting: only reached on a cache miss during
   the first (spec-gathering) pass of [run_build], and discarded with the
   rest of that pass's output. *)
let placeholder_result (s : Core.Simulator.spec) : Core.Simulator.result =
  {
    algo = s.Core.Simulator.algo;
    n_clients = s.Core.Simulator.cfg.Core.Sys_params.n_clients;
    mean_response = 0.0;
    response_stddev = 0.0;
    response_p50 = 0.0;
    response_p95 = 0.0;
    throughput = 0.0;
    commits = 0;
    aborts = 0;
    aborts_deadlock = 0;
    aborts_stale = 0;
    aborts_cert = 0;
    hit_ratio = 0.0;
    messages = 0;
    packets = 0;
    msgs_per_commit = 0.0;
    callbacks_sent = 0;
    pushes_sent = 0;
    server_cpu_util = 0.0;
    client_cpu_util = 0.0;
    disk_util = 0.0;
    log_disk_util = 0.0;
    net_util = 0.0;
    window = 0.0;
    sim_time = 0.0;
    events = 0;
    aborts_lease = 0;
    retries = 0;
    crashes = 0;
    recoveries = 0;
    lost_xacts = 0;
    reclaimed_locks = 0;
    lease_lapses = 0;
    msgs_dropped = 0;
    msgs_delayed = 0;
    msgs_duplicated = 0;
    mean_recovery = 0.0;
    server_crashes = 0;
    server_recoveries = 0;
    server_killed_xacts = 0;
    checkpoints = 0;
    server_downtime = 0.0;
    mean_server_recovery = 0.0;
    n_shards = s.Core.Simulator.n_shards;
    prepares = 0;
    xshard_commits = 0;
    xshard_aborts = 0;
    outcome_queries = 0;
    shard_commits = [||];
    rep_mean_responses = [||];
    rep_throughputs = [||];
    stop = Target_reached;
    obs = None;
  }

(* Every executed cell passes here: a run that stopped before its commit
   target is remembered, so the caller can refuse its numbers. *)
let store t key (r : Core.Simulator.result) =
  t.executed <- t.executed + 1;
  if r.stop <> Core.Simulator.Target_reached then t.short <- r :: t.short;
  Hashtbl.replace t.cache key r

let take_short t =
  let short = List.rev t.short in
  t.short <- [];
  short

(* All experiment cells run through the one assembly: one shard is the
   single-server simulator, N shards add per-client routers and 2PC. *)
let execute t spec =
  Shard.Shard_sim.run_replicated ~jobs:t.jobs spec ~reps:t.opts.reps

let run t spec =
  let spec = normalize t spec in
  let key = key_of_spec spec in
  match Hashtbl.find_opt t.cache key with
  | Some r -> r
  | None ->
      if t.collecting then begin
        if not (Hashtbl.mem t.pending_keys key) then begin
          Hashtbl.add t.pending_keys key ();
          t.pending <- (key, spec) :: t.pending
        end;
        placeholder_result spec
      end
      else begin
        let r = execute t spec in
        store t key r;
        r
      end

let run_build t build =
  if t.jobs <= 1 then build t
  else begin
    (* Pass 1: evaluate [build] with the runner in collecting mode.  Cache
       misses record their spec and return a placeholder; the pass's output
       is discarded.  This assumes — true of every figure in Suite — that
       WHICH specs a figure requests does not depend on simulation results,
       only what it renders from them. *)
    t.collecting <- true;
    t.pending <- [];
    Hashtbl.reset t.pending_keys;
    let batch =
      Fun.protect
        ~finally:(fun () ->
          t.collecting <- false;
          t.pending <- [];
          Hashtbl.reset t.pending_keys)
        (fun () ->
          ignore (build t);
          List.rev t.pending)
    in
    (* Dispatch the batch across the pool.  Each cell is seeded from the
       runner options, never from scheduling, so results — and therefore
       the figures rebuilt below — are identical for any jobs count.
       Replications are left sequential inside each cell: the cells
       themselves already saturate the pool. *)
    let results =
      Sim.Pool.map ~jobs:t.jobs
        (fun (_, spec) -> Shard.Shard_sim.run_replicated spec ~reps:t.opts.reps)
        batch
    in
    List.iter2 (fun (key, _) r -> store t key r) batch results;
    (* Pass 2: every spec now hits the cache. *)
    build t
  end

let runs_executed t = t.executed
