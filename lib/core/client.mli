(** A client workstation (paper §3.3.3): transaction generator, cache
    manager, and the algorithm-dependent client transaction manager.

    A client is a simulation process only while it has work:

    - one {e transaction} process per Figure 3 transaction generates a
      profile, runs its steps under the configured algorithm, restarts it
      after every abort until it commits, and spawns the next one after
      the think time;
    - an inbox {e dispatcher} ({!Sim.Mailbox.serve}), spawned while server
      messages are queued, answers callbacks even while the transaction
      is blocked on a fetch.

    Protocol state (which cached pages are locked by the current
    transaction, checked by certification, retained under callback locking,
    dirtied in place) lives here; the server holds the authoritative lock
    table.  Each algorithm's client half — its read path, write request,
    commit payload and retention, abort cleanup and reaction to a server
    restart — is one section, selected once by [create]; the request,
    reply and commit machinery around the sections is shared. *)

type t

(** [?audit] — when given, every committed transaction appends its
    (page, version) read and write summaries to the history, enabling the
    serializability check of {!Cc.History}.

    [?fault] — an active {!Fault.Plan} arms the recovery machinery:
    request timeouts with capped exponential backoff and idempotent
    retransmission, crash/restart handling (a separate process, the crash
    gremlin, schedules crashes off the plan seed), and — under callback
    locking — lease-bounded trust in retained locks.  With the default
    {!Fault.Plan.none} every one of those paths is dormant and behavior
    is bit-identical to a fault-free build.

    [?down_gauge] — a shared counter the client increments while crashed
    and decrements on recovery, so a fleet-wide "clients down" probe is
    O(1) instead of scanning every client per sample.

    [to_server] sends one message with its causal trace context:
    [parent] is the node id of the message whose receipt caused this
    send (-1 when unknown or causal tracing is off) and [retry] the
    retransmission index (0 = first transmission). *)
val create :
  ?audit:Cc.History.t ->
  ?fault:Fault.Plan.t ->
  ?down_gauge:int ref ->
  Sim.Engine.t ->
  id:int ->
  cfg:Sys_params.t ->
  algo:Proto.algorithm ->
  workload:Db.Workload.t ->
  rng:Sim.Rng.t ->
  metrics:Metrics.t ->
  to_server:(parent:int -> retry:int -> Proto.c2s -> unit) ->
  on_commit:(unit -> unit) ->
  t

(** The client CPU endpoint (for charging inbound messages). *)
val port : t -> Proto.port

(** Mailbox the server delivers into: (causal node id, message) pairs,
    the node id being -1 when causal tracing is off. *)
val inbox : t -> (int * Proto.s2c) Sim.Mailbox.t

(** The cache, as the server's notification-directory view. *)
val cache : t -> Storage.Lru_pool.t

(** Serve the inbox and schedule the start event, which staggers the
    client's first transaction.  Call once. *)
val start : t -> unit

(** {1 Introspection (stats, tests)} *)

(** Is the client currently down? *)
val crashed : t -> bool

(** (page, version) pairs currently cached — the chaos harness's
    cache-coherence sweep compares them against the server's versions. *)
val cached_versions : t -> (int * int) list
val cpu_utilization : t -> float
val reset_stats : t -> unit
