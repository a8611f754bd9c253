type spec = {
  cfg : Sys_params.t;
  db_params : Db.Db_params.t;
  xact_params : Db.Xact_params.t;
  mix : (float * Db.Xact_params.t) list option;
  algo : Proto.algorithm;
  n_shards : int;
  seed : int;
  warmup_commits : int;
  measured_commits : int;
  max_sim_time : float;
  fault : Fault.Plan.t;
  obs : Obs.Config.t;
}

let default_spec ?(seed = 1) ?(warmup_commits = 300) ?(measured_commits = 2000)
    ?(max_sim_time = 50_000.0) ?(fault = Fault.Plan.none)
    ?(obs = Obs.Config.off) ~cfg ~xact_params algo =
  {
    cfg;
    db_params = Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ();
    xact_params;
    mix = None;
    algo;
    n_shards = 1;
    seed;
    warmup_commits;
    measured_commits;
    max_sim_time;
    fault;
    obs;
  }

type stop = Target_reached | Time_limit | Heap_drained

let stop_label = function
  | Target_reached -> "target"
  | Time_limit -> "time-limit"
  | Heap_drained -> "heap-drained"

type result = {
  algo : Proto.algorithm;
  n_clients : int;
  mean_response : float;
  response_stddev : float;
  response_p50 : float;
  response_p95 : float;
  throughput : float;
  commits : int;
  aborts : int;
  aborts_deadlock : int;
  aborts_stale : int;
  aborts_cert : int;
  hit_ratio : float;
  messages : int;
  packets : int;
  msgs_per_commit : float;
  callbacks_sent : int;
  pushes_sent : int;
  server_cpu_util : float;
  client_cpu_util : float;
  disk_util : float;
  log_disk_util : float;
  net_util : float;
  window : float;
  sim_time : float;
  events : int;
  (* fault / availability metrics (all zero under [Fault.Plan.none]) *)
  aborts_lease : int;
  retries : int;
  crashes : int;
  recoveries : int;
  lost_xacts : int;
  reclaimed_locks : int;
  lease_lapses : int;
  msgs_dropped : int;
  msgs_delayed : int;
  msgs_duplicated : int;
  mean_recovery : float;
  (* server availability (all zero unless the plan crashes the server) *)
  server_crashes : int;
  server_recoveries : int;
  server_killed_xacts : int;
  checkpoints : int;
  server_downtime : float;
  mean_server_recovery : float;
  (* sharded topologies (n_shards = 1 and zeros for unsharded runs) *)
  n_shards : int;
  prepares : int;
  xshard_commits : int;
  xshard_aborts : int;
  outcome_queries : int;
  shard_commits : int array;
      (* commits applied per shard, in shard order — a singleton for
         unsharded runs; reveals hot-shard skew under Zipf access *)
  (* per-replication point estimates, in seed order (singletons for a
     single run): the raw material for replication confidence intervals.
     Purely additive — every pooled scalar above is computed exactly as
     before. *)
  rep_mean_responses : float array;
  rep_throughputs : float array;
  stop : stop;
  obs : Obs.Run.t option;
}

(* Per-replication measurement state that the scalar [result] cannot
   reconstruct: the response-time accumulator and raw samples (for pooled
   stddev and quantiles) and the hit/lookup counts (for count-weighted
   ratios). *)
type rep_stats = {
  rep_response : Sim.Stats.t;
  rep_samples : Sim.Stats.Samples.t;
  rep_lookups : int;
  rep_hits : int;
}

let aggregate runs =
  if runs = [] then invalid_arg "Simulator.aggregate: no runs";
  let reps = List.length runs in
  begin
    let results = List.map fst runs in
    (* Response-time moments and quantiles come from the pooled per-commit
       observations — averaging per-rep stddevs or quantiles is not a
       stddev or quantile of anything.  Ratios are weighted by their
       denominators' counts, not averaged. *)
    let pooled_response =
      List.fold_left
        (fun acc (_, e) -> Sim.Stats.merge acc e.rep_response)
        (Sim.Stats.create ()) runs
    in
    let pooled_samples =
      match runs with
      | [] -> Sim.Stats.Samples.create ~capacity:0 ()
      | (_, e0) :: rest ->
          List.fold_left
            (fun acc (_, e) -> Sim.Stats.Samples.merge acc e.rep_samples)
            e0.rep_samples rest
    in
    let lookups = List.fold_left (fun a (_, e) -> a + e.rep_lookups) 0 runs in
    let hits = List.fold_left (fun a (_, e) -> a + e.rep_hits) 0 runs in
    let n = float_of_int reps in
    let favg f = List.fold_left (fun a r -> a +. f r) 0.0 results /. n in
    let isum f = List.fold_left (fun a r -> a + f r) 0 results in
    let first = List.hd results in
    let commits = isum (fun r -> r.commits) in
    let messages = isum (fun r -> r.messages) in
    {
      first with
      mean_response = Sim.Stats.mean pooled_response;
      response_stddev = Sim.Stats.stddev pooled_response;
      response_p50 = Sim.Stats.Samples.quantile pooled_samples 0.5;
      response_p95 = Sim.Stats.Samples.quantile pooled_samples 0.95;
      throughput = favg (fun r -> r.throughput);
      commits;
      aborts = isum (fun r -> r.aborts);
      aborts_deadlock = isum (fun r -> r.aborts_deadlock);
      aborts_stale = isum (fun r -> r.aborts_stale);
      aborts_cert = isum (fun r -> r.aborts_cert);
      hit_ratio =
        (if lookups = 0 then 0.0
         else float_of_int hits /. float_of_int lookups);
      messages;
      packets = isum (fun r -> r.packets);
      msgs_per_commit =
        (if commits = 0 then 0.0
         else float_of_int messages /. float_of_int commits);
      callbacks_sent = isum (fun r -> r.callbacks_sent);
      pushes_sent = isum (fun r -> r.pushes_sent);
      server_cpu_util = favg (fun r -> r.server_cpu_util);
      client_cpu_util = favg (fun r -> r.client_cpu_util);
      disk_util = favg (fun r -> r.disk_util);
      log_disk_util = favg (fun r -> r.log_disk_util);
      net_util = favg (fun r -> r.net_util);
      window = favg (fun r -> r.window);
      sim_time = favg (fun r -> r.sim_time);
      events = isum (fun r -> r.events);
      aborts_lease = isum (fun r -> r.aborts_lease);
      retries = isum (fun r -> r.retries);
      crashes = isum (fun r -> r.crashes);
      recoveries = isum (fun r -> r.recoveries);
      lost_xacts = isum (fun r -> r.lost_xacts);
      reclaimed_locks = isum (fun r -> r.reclaimed_locks);
      lease_lapses = isum (fun r -> r.lease_lapses);
      msgs_dropped = isum (fun r -> r.msgs_dropped);
      msgs_delayed = isum (fun r -> r.msgs_delayed);
      msgs_duplicated = isum (fun r -> r.msgs_duplicated);
      mean_recovery =
        (* weight per-rep means by their recovery counts *)
        (let recs = isum (fun r -> r.recoveries) in
         if recs = 0 then 0.0
         else
           List.fold_left
             (fun a r -> a +. (r.mean_recovery *. float_of_int r.recoveries))
             0.0 results
           /. float_of_int recs);
      server_crashes = isum (fun r -> r.server_crashes);
      server_recoveries = isum (fun r -> r.server_recoveries);
      server_killed_xacts = isum (fun r -> r.server_killed_xacts);
      checkpoints = isum (fun r -> r.checkpoints);
      (* total seconds of outage across replications, like the counters *)
      server_downtime =
        List.fold_left (fun a r -> a +. r.server_downtime) 0.0 results;
      mean_server_recovery =
        (let recs = isum (fun r -> r.server_recoveries) in
         if recs = 0 then 0.0
         else
           List.fold_left
             (fun a r ->
               a +. (r.mean_server_recovery *. float_of_int r.server_recoveries))
             0.0 results
           /. float_of_int recs);
      prepares = isum (fun r -> r.prepares);
      xshard_commits = isum (fun r -> r.xshard_commits);
      xshard_aborts = isum (fun r -> r.xshard_aborts);
      outcome_queries = isum (fun r -> r.outcome_queries);
      shard_commits =
        (* element-wise sum; every rep runs the same topology *)
        (let acc = Array.copy first.shard_commits in
         List.iter
           (fun r ->
             Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) r.shard_commits)
           (List.tl results);
         acc);
      rep_mean_responses =
        Array.of_list (List.map (fun r -> r.mean_response) results);
      rep_throughputs =
        Array.of_list (List.map (fun r -> r.throughput) results);
      (* constructors are declared in order of severity *)
      stop = List.fold_left (fun s r -> max s r.stop) Target_reached results;
      obs =
        (* [Pool.map] preserves submission order, so replication payloads
           concatenate in seed order at any [jobs] — the merged trace is
           byte-identical whether run at -j 1 or -j N. *)
        (let reps =
           List.concat_map
             (fun r ->
               match r.obs with Some o -> o.Obs.Run.reps | None -> [])
             results
         in
         if reps = [] then None else Some { Obs.Run.reps });
    }
  end

let pp_result fmt r =
  Format.fprintf fmt
    "%-15s clients=%-3d rt=%.3fs tput=%.2f/s commits=%d aborts=%d \
     (dl=%d stale=%d cert=%d) hit=%.2f msgs/xact=%.1f cpu=%.2f disk=%.2f \
     net=%.2f"
    (Proto.algorithm_name r.algo)
    r.n_clients r.mean_response r.throughput r.commits r.aborts
    r.aborts_deadlock r.aborts_stale r.aborts_cert r.hit_ratio
    r.msgs_per_commit r.server_cpu_util r.disk_util r.net_util;
  if
    r.crashes > 0 || r.retries > 0 || r.msgs_dropped > 0
    || r.aborts_lease > 0
  then
    Format.fprintf fmt
      " | faults: drops=%d dups=%d retries=%d crashes=%d recovered=%d \
       (%.3fs avg) lost=%d lease-aborts=%d reclaimed=%d"
      r.msgs_dropped r.msgs_duplicated r.retries r.crashes r.recoveries
      r.mean_recovery r.lost_xacts r.aborts_lease r.reclaimed_locks;
  if r.server_crashes > 0 then
    Format.fprintf fmt
      " | server: crashes=%d recovered=%d killed=%d ckpts=%d down=%.3fs \
       replay=%.4fs avg"
      r.server_crashes r.server_recoveries r.server_killed_xacts r.checkpoints
      r.server_downtime r.mean_server_recovery;
  if r.n_shards > 1 then
    Format.fprintf fmt
      " | shards: n=%d prepares=%d 2pc-commits=%d 2pc-aborts=%d queries=%d \
       per-shard=[%s]"
      r.n_shards r.prepares r.xshard_commits r.xshard_aborts r.outcome_queries
      (String.concat ";"
         (Array.to_list (Array.map string_of_int r.shard_commits)))
