type abort_reason = Deadlock | Stale_read | Cert_fail | Lease_reclaim

type t = {
  eng : Sim.Engine.t;
  mutable start : float;
  response : Sim.Stats.t;
  response_samples : Sim.Stats.Samples.t;
  mutable n_commits : int;
  mutable n_total_commits : int;
  mutable n_deadlock : int;
  mutable n_stale : int;
  mutable n_cert : int;
  mutable n_lookups : int;
  mutable n_hits : int;
  (* fault-injection availability counters (all zero under Fault.none) *)
  mutable n_lease : int;
  mutable n_retries : int;
  mutable n_crashes : int;
  mutable n_recoveries : int;
  mutable n_lost_xacts : int;
  mutable n_reclaimed_locks : int;
  mutable n_lease_lapses : int;
  recovery : Sim.Stats.t;
  (* server-fault availability counters (all zero unless the plan can
     crash the server) *)
  mutable n_server_crashes : int;
  mutable n_server_recoveries : int;
  mutable n_server_killed : int;
  mutable n_checkpoints : int;
  mutable server_downtime : float;
  server_recovery : Sim.Stats.t;
  (* sharding / two-phase-commit counters (all zero with one shard) *)
  mutable n_prepares : int;
  mutable n_xshard_commits : int;
  mutable n_xshard_aborts : int;
  mutable n_outcome_queries : int;
}

let create eng =
  {
    eng;
    start = Sim.Engine.now eng;
    response = Sim.Stats.create ();
    response_samples = Sim.Stats.Samples.create ();
    n_commits = 0;
    n_total_commits = 0;
    n_deadlock = 0;
    n_stale = 0;
    n_cert = 0;
    n_lookups = 0;
    n_hits = 0;
    n_lease = 0;
    n_retries = 0;
    n_crashes = 0;
    n_recoveries = 0;
    n_lost_xacts = 0;
    n_reclaimed_locks = 0;
    n_lease_lapses = 0;
    recovery = Sim.Stats.create ();
    n_server_crashes = 0;
    n_server_recoveries = 0;
    n_server_killed = 0;
    n_checkpoints = 0;
    server_downtime = 0.0;
    server_recovery = Sim.Stats.create ();
    n_prepares = 0;
    n_xshard_commits = 0;
    n_xshard_aborts = 0;
    n_outcome_queries = 0;
  }

let measure_start t = t.start

let record_commit t ~response =
  t.n_commits <- t.n_commits + 1;
  t.n_total_commits <- t.n_total_commits + 1;
  Sim.Stats.add t.response response;
  Sim.Stats.Samples.add t.response_samples response

let record_abort t = function
  | Deadlock -> t.n_deadlock <- t.n_deadlock + 1
  | Stale_read -> t.n_stale <- t.n_stale + 1
  | Cert_fail -> t.n_cert <- t.n_cert + 1
  | Lease_reclaim -> t.n_lease <- t.n_lease + 1

let record_lookup t ~hit =
  t.n_lookups <- t.n_lookups + 1;
  if hit then t.n_hits <- t.n_hits + 1

let record_retry t = t.n_retries <- t.n_retries + 1

let record_crash t ~in_xact =
  t.n_crashes <- t.n_crashes + 1;
  if in_xact then t.n_lost_xacts <- t.n_lost_xacts + 1

let record_recovery t ~downtime =
  t.n_recoveries <- t.n_recoveries + 1;
  Sim.Stats.add t.recovery downtime

let record_reclaimed t ~locks = t.n_reclaimed_locks <- t.n_reclaimed_locks + locks
let record_lease_lapse t = t.n_lease_lapses <- t.n_lease_lapses + 1

let record_server_crash t ~killed =
  t.n_server_crashes <- t.n_server_crashes + 1;
  t.n_server_killed <- t.n_server_killed + killed

let record_server_recovery t ~downtime ~recovery =
  t.n_server_recoveries <- t.n_server_recoveries + 1;
  t.server_downtime <- t.server_downtime +. downtime;
  Sim.Stats.add t.server_recovery recovery

let record_checkpoint t = t.n_checkpoints <- t.n_checkpoints + 1
let record_prepare t = t.n_prepares <- t.n_prepares + 1

let record_xshard_commit t = t.n_xshard_commits <- t.n_xshard_commits + 1
let record_xshard_abort t = t.n_xshard_aborts <- t.n_xshard_aborts + 1
let record_outcome_query t = t.n_outcome_queries <- t.n_outcome_queries + 1
let total_commits t = t.n_total_commits
let commits t = t.n_commits
let aborts t = t.n_deadlock + t.n_stale + t.n_cert + t.n_lease

let aborts_by t = function
  | Deadlock -> t.n_deadlock
  | Stale_read -> t.n_stale
  | Cert_fail -> t.n_cert
  | Lease_reclaim -> t.n_lease

let mean_response t = Sim.Stats.mean t.response
let response_quantile t q = Sim.Stats.Samples.quantile t.response_samples q
let response_stats t = t.response
let response_samples t = t.response_samples
let lookups t = t.n_lookups
let hits t = t.n_hits
let retries t = t.n_retries
let crashes t = t.n_crashes
let recoveries t = t.n_recoveries
let lost_xacts t = t.n_lost_xacts
let reclaimed_locks t = t.n_reclaimed_locks
let lease_lapses t = t.n_lease_lapses
let mean_recovery t = Sim.Stats.mean t.recovery
let server_crashes t = t.n_server_crashes
let server_recoveries t = t.n_server_recoveries
let server_killed_xacts t = t.n_server_killed
let checkpoints t = t.n_checkpoints
let server_downtime t = t.server_downtime
let mean_server_recovery t = Sim.Stats.mean t.server_recovery
let prepares t = t.n_prepares
let xshard_commits t = t.n_xshard_commits
let xshard_aborts t = t.n_xshard_aborts
let outcome_queries t = t.n_outcome_queries

let throughput t ~now =
  let dt = now -. t.start in
  if dt <= 0.0 then 0.0 else float_of_int t.n_commits /. dt

let reset t =
  t.start <- Sim.Engine.now t.eng;
  Sim.Stats.reset t.response;
  Sim.Stats.Samples.reset t.response_samples;
  t.n_commits <- 0;
  t.n_deadlock <- 0;
  t.n_stale <- 0;
  t.n_cert <- 0;
  t.n_lookups <- 0;
  t.n_hits <- 0;
  t.n_lease <- 0;
  t.n_retries <- 0;
  t.n_crashes <- 0;
  t.n_recoveries <- 0;
  t.n_lost_xacts <- 0;
  t.n_reclaimed_locks <- 0;
  t.n_lease_lapses <- 0;
  Sim.Stats.reset t.recovery;
  t.n_server_crashes <- 0;
  t.n_server_recoveries <- 0;
  t.n_server_killed <- 0;
  t.n_checkpoints <- 0;
  t.server_downtime <- 0.0;
  Sim.Stats.reset t.server_recovery;
  t.n_prepares <- 0;
  t.n_xshard_commits <- 0;
  t.n_xshard_aborts <- 0;
  t.n_outcome_queries <- 0
