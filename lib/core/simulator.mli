(** What one simulation is and what it reports: the run {!spec} (a
    server, or [n_shards] shard servers, [n_clients] clients, the shared
    network, and one consistency algorithm, measured over a steady-state
    window) and its {!result}, plus the arithmetic that pools
    replications.

    A run executes a warmup of [warmup_commits] committed transactions,
    resets every statistic, measures until another [measured_commits]
    commits (or [max_sim_time] elapses), and reports the paper's metrics:
    mean transaction response time, system throughput, abort counts, cache
    hit ratio, message counts, and resource utilizations.

    The assembly that runs a spec lives in [Shard.Shard_sim] (this
    library cannot depend on the shard router it needs for [n_shards > 1]);
    it builds every topology, one server or many. *)

type spec = {
  cfg : Sys_params.t;
  db_params : Db.Db_params.t;
  xact_params : Db.Xact_params.t;
  mix : (float * Db.Xact_params.t) list option;
      (** when set, overrides [xact_params] with a weighted transaction-type
          mix (paper §3.2) *)
  algo : Proto.algorithm;
  n_shards : int;
      (** number of shard servers the page space is partitioned over
          (default 1; must be at least 1).  A one-shard run is the
          single-server simulator of the paper; more shards add a router
          per client and two-phase commit. *)
  seed : int;
  warmup_commits : int;
  measured_commits : int;
  max_sim_time : float;  (** hard stop in simulated seconds *)
  fault : Fault.Plan.t;
      (** deterministic fault-injection plan; [Fault.Plan.none] (the
          default) leaves every run bit-identical to the fault-free
          simulator *)
  obs : Obs.Config.t;
      (** observability switches; {!Obs.Config.off} (the default) installs
          no recorder, sampler, or profiling and leaves the run
          bit-identical.  With [series] on, a run that would otherwise
          drain its event queue early instead ends exactly at
          [max_sim_time], because the sampler process keeps the clock
          alive; runs that reach their commit target are unaffected
          ([Engine.stop] fires first). *)
}

(** A convenient spec: Table 5 system, short-batch workload, 300 warmup +
    2000 measured commits, no faults. *)
val default_spec :
  ?seed:int ->
  ?warmup_commits:int ->
  ?measured_commits:int ->
  ?max_sim_time:float ->
  ?fault:Fault.Plan.t ->
  ?obs:Obs.Config.t ->
  cfg:Sys_params.t ->
  xact_params:Db.Xact_params.t ->
  Proto.algorithm ->
  spec

(** Why a run ended, in order of severity. *)
type stop =
  | Target_reached  (** warmup and measured commits all happened *)
  | Time_limit  (** [max_sim_time] passed first *)
  | Heap_drained  (** no event was left: every process ended or blocked *)

(** The CSV spelling: [target], [time-limit] or [heap-drained]. *)
val stop_label : stop -> string

type result = {
  algo : Proto.algorithm;
  n_clients : int;
  mean_response : float;  (** seconds, first attempt begin → commit *)
  response_stddev : float;
  response_p50 : float;
  response_p95 : float;
  throughput : float;  (** commits per second *)
  commits : int;
  aborts : int;
  aborts_deadlock : int;
  aborts_stale : int;
  aborts_cert : int;
  hit_ratio : float;  (** page accesses served with no server message *)
  messages : int;  (** messages posted, dropped ones included *)
  packets : int;
  msgs_per_commit : float;
  callbacks_sent : int;  (** callback requests posted *)
  pushes_sent : int;  (** update pushes and invalidations posted *)
  server_cpu_util : float;
  client_cpu_util : float;  (** mean over clients *)
  disk_util : float;  (** mean over data disks *)
  log_disk_util : float;
  net_util : float;
  window : float;  (** measured seconds of simulated time *)
  sim_time : float;  (** total simulated seconds *)
  events : int;
  aborts_lease : int;  (** aborts from lease reclamation of silent clients *)
  retries : int;  (** client request retransmissions *)
  crashes : int;
  recoveries : int;
  lost_xacts : int;  (** crashes that killed an in-flight transaction *)
  reclaimed_locks : int;
  lease_lapses : int;  (** client-side retained-lock lease expirations *)
  msgs_dropped : int;  (** posts the fault injector dropped *)
  msgs_delayed : int;  (** posts it held back by an extra delay *)
  msgs_duplicated : int;  (** posts it duplicated (once per post) *)
  mean_recovery : float;  (** mean crash-to-recovery downtime, seconds *)
  server_crashes : int;
      (** server failures (plans with server faults); like every
          [server_*] availability field below, an aggregate over all
          [n_shards] servers in a sharded topology *)
  server_recoveries : int;
  server_killed_xacts : int;
      (** in-flight transactions killed by server crashes *)
  checkpoints : int;  (** redo-log checkpoints taken *)
  server_downtime : float;
      (** total seconds the server was unavailable (summed over
          replications in {!aggregate}) *)
  mean_server_recovery : float;
      (** mean log-replay time per recovery, seconds *)
  n_shards : int;  (** topology the run executed (1 = a single server) *)
  prepares : int;  (** 2PC prepare slices force-logged (0 unsharded) *)
  xshard_commits : int;  (** cross-shard transactions committed by 2PC *)
  xshard_aborts : int;  (** cross-shard transactions aborted at 2PC time *)
  outcome_queries : int;
      (** in-doubt participants asking the decider for the outcome *)
  shard_commits : int array;
      (** commits applied per shard, in shard order (a singleton for
          unsharded runs) — reveals hot-shard skew under Zipf access *)
  rep_mean_responses : float array;
      (** each replication's mean response time, in seed order (a
          singleton for a single run) — the raw material for
          {!Obs.Run_stats.mean_ci} replication confidence intervals *)
  rep_throughputs : float array;  (** likewise for throughput *)
  stop : stop;  (** over replications, the most severe *)
  obs : Obs.Run.t option;
      (** observability payload — one {!Obs.Run.rep} per replication, in
          seed order — when [spec.obs] enabled anything; [None] otherwise *)
}

val pp_result : Format.formatter -> result -> unit

(** {1 Replication plumbing}

    [Shard.Shard_sim.run_with_stats] returns each replication's
    {!result} with the state below; {!aggregate} pools them, so the
    aggregation arithmetic lives in one place. *)

(** Per-replication measurement state a scalar {!result} cannot
    reconstruct: the response-time accumulator and raw samples (for
    pooled stddev/quantiles) and hit/lookup counts (for count-weighted
    ratios). *)
type rep_stats = {
  rep_response : Sim.Stats.t;
  rep_samples : Sim.Stats.Samples.t;
  rep_lookups : int;
  rep_hits : int;
}

(** Pool a non-empty list of per-seed runs into one {!result}:
    response-time mean, stddev, and quantiles come from the pooled
    per-commit observations of every replication (via
    {!Sim.Stats.merge} / {!Sim.Stats.Samples.merge}), counts are summed,
    [hit_ratio] and [msgs_per_commit] are weighted by their per-rep
    denominators, utilizations are averaged, and per-rep arrays and
    observability payloads are concatenated in list order. *)
val aggregate : (result * rep_stats) list -> result
