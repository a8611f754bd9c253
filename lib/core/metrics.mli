(** Simulation-wide measurement state.

    One [Metrics.t] is shared by all clients and the server.  The runner
    resets it (and every facility) at the warmup boundary so reported
    numbers cover only the steady-state window.  Messages are not counted
    here: [Net.Network.post] counts every post, fault verdict, callback
    request and notification. *)

type t

val create : Sim.Engine.t -> t

(** Time the current measurement window opened. *)
val measure_start : t -> float

(** {1 Recording} *)

(** [record_commit t ~response] — a transaction committed; [response] is
    seconds from its first attempt's begin to commit (restarts included). *)
val record_commit : t -> response:float -> unit

type abort_reason = Deadlock | Stale_read | Cert_fail | Lease_reclaim

val record_abort : t -> abort_reason -> unit

(** [record_lookup t ~hit] — a client accessed one page; [hit] means it was
    served locally, with no server message. *)
val record_lookup : t -> hit:bool -> unit

(** {1 Fault-injection availability accounting}

    All zero when fault injection is off. *)

(** A client re-sent a timed-out request. *)
val record_retry : t -> unit

(** A client crashed; [in_xact] marks a transaction lost mid-flight. *)
val record_crash : t -> in_xact:bool -> unit

(** A crashed client came back after [downtime] seconds. *)
val record_recovery : t -> downtime:float -> unit

(** The server lease-reclaimed [locks] locks from a silent client. *)
val record_reclaimed : t -> locks:int -> unit

(** A client stopped trusting its retained state because its lease
    lapsed, and voluntarily restarted the transaction. *)
val record_lease_lapse : t -> unit

(** {1 Server-fault availability accounting}

    All zero unless the plan can crash the server. *)

(** The server crashed, killing [killed] in-flight transactions. *)
val record_server_crash : t -> killed:int -> unit

(** The server reopened after [downtime] total seconds of outage, of
    which [recovery] seconds were spent replaying the log. *)
val record_server_recovery : t -> downtime:float -> recovery:float -> unit

(** The server forced a committed-version checkpoint to the log. *)
val record_checkpoint : t -> unit

(** {1 Sharding / two-phase-commit accounting}

    All zero with a single shard. *)

(** A shard force-logged a 2PC prepare record and voted. *)
val record_prepare : t -> unit

(** A cross-shard transaction committed (counted once, by the router). *)
val record_xshard_commit : t -> unit

(** A cross-shard transaction aborted during 2PC (counted once). *)
val record_xshard_abort : t -> unit

(** A participant queried the decider for an in-doubt outcome. *)
val record_outcome_query : t -> unit

(** Commits since the simulation (not the window) started — used for warmup
    and run-length control. *)
val total_commits : t -> int

(** {1 Reading the window} *)

val commits : t -> int
val aborts : t -> int
val aborts_by : t -> abort_reason -> int
val mean_response : t -> float
val response_stats : t -> Sim.Stats.t

(** The raw window response times — pooled across replications for exact
    combined quantiles. *)
val response_samples : t -> Sim.Stats.Samples.t

(** Exact response-time quantile over the window, [q] in [0, 1]. *)
val response_quantile : t -> float -> float
val lookups : t -> int
val hits : t -> int
val retries : t -> int
val crashes : t -> int
val recoveries : t -> int
val lost_xacts : t -> int
val reclaimed_locks : t -> int
val lease_lapses : t -> int

(** Mean client downtime over recorded recoveries (0 if none). *)
val mean_recovery : t -> float

val server_crashes : t -> int
val server_recoveries : t -> int

(** Transactions killed because the server lost them in a crash. *)
val server_killed_xacts : t -> int

val checkpoints : t -> int

(** Total seconds the server was down in the window. *)
val server_downtime : t -> float

(** Mean log-replay time over recorded server recoveries (0 if none). *)
val mean_server_recovery : t -> float

val prepares : t -> int
val xshard_commits : t -> int
val xshard_aborts : t -> int
val outcome_queries : t -> int

(** Committed transactions per second of window time. *)
val throughput : t -> now:float -> float

(** Re-open the measurement window at the current simulated time. *)
val reset : t -> unit
