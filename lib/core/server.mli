(** The database server (paper §3.3.4 and Figure 4).

    Owns the server CPU(s), data and log disks, buffer pool, lock manager,
    version table, and MPL admission control.  Each incoming client message
    is handled by its own process; operations of the same transaction are
    serialized on a per-transaction chain (a client session delivers its
    requests in order), which is also what makes a no-wait commit wait for
    the transaction's outstanding optimistic requests.  A handler that
    must wait for an MPL slot or for its chain is parked as a closure, not
    a process, and spawned when its turn comes.

    The algorithm-dependent server transaction module of the paper is one
    section per protocol — §2.1/§2.4 locking, §2.2 certification, §2.3
    callback locking — each a record of the decisions where the
    algorithms differ: what a blocked lock request does, which locks an
    abort or a commit gives back, what a failed validation counts as, and
    how a prepared 2PC slice is guarded.  [create] selects one; the
    protocol-neutral handlers around them (fetch with no-wait silence,
    certification reads, one commit pipeline with logging, installation
    and update notification, 2PC, crash recovery) consult it. *)

type t

(** A broken server-side invariant: the protocol under which it broke,
    the client whose request exposed it, and which invariant it was.
    Replaces what used to be bare [assert false] branches, so a violation
    in a long chaos run says {e what} died instead of a file/line pair. *)
exception
  Server_invariant of { protocol : string; client : int; kind : string }

(** [?fault] enables the recovery paths: request idempotency (a table of
    finished commit verdicts replayed to retransmissions), commit-time
    re-validation of no-wait read sets, callback-request re-sends, and
    lease-based reclamation of locks held by silent clients.  With the
    default [Fault.Plan.none] every one of those paths is inert and the
    server behaves bit-identically to the original.

    [?label] prefixes the names of this server's CPU facility and disks —
    sharded assemblies pass ["s<k>-"] so per-resource stats stay
    distinguishable.  The empty default keeps single-server names
    unchanged. *)
val create :
  ?fault:Fault.Plan.t ->
  ?label:string ->
  Sim.Engine.t ->
  cfg:Sys_params.t ->
  db:Db.Database.t ->
  algo:Proto.algorithm ->
  rng:Sim.Rng.t ->
  metrics:Metrics.t ->
  t

(** {1 Links}

    The server knows clients and other shards by id only: the assembly
    that builds the topology gives it one closure per direction, the way
    a client is given its [to_server].

    [connect t ~shard_id ~peers ~to_client ~to_shard] must be called
    once, before any message is delivered.

    - [to_client cid ~parent ~xid ~retry msg] puts [msg] on the wire to
      client [cid]: [parent] is the causal node id of the message whose
      receipt caused the send (-1 when none), [xid] the transaction the
      message belongs to, and [retry] the retransmission index of a
      server-side re-send (callback nags).
    - [to_shard k ~parent ~retry msg] sends a 2PC termination message to
      shard [k] (sharded topologies only).
    - [peers] lists every shard, self included, indexed by shard id, or
      is [[||]] for a server alone.  With peers the server accepts the
      2PC messages ([Proto.Prepare] / [Proto.Decision] /
      [Proto.Outcome_query]), resolves in-doubt slices on recovery, and
      detects deadlocks on the union waits-for graph over every peer's
      lock table.  Without them it never runs 2PC and is bit-identical
      to the pre-sharding implementation. *)
val connect :
  t ->
  shard_id:int ->
  peers:t array ->
  to_client:(int -> parent:int -> xid:int -> retry:int -> Proto.s2c -> unit) ->
  to_shard:(int -> parent:int -> retry:int -> Proto.c2s -> unit) ->
  unit

(** [residency_add t cid page] / [residency_drop t cid page] mirror one
    client pool's residency change into this server's notification
    directory (which client caches which page — see DESIGN.md on why
    consulting it costs nothing).  The assembly calls them from one
    residency hook per client pool, for the shard that owns [page],
    whenever {!notifies}. *)
val residency_add : t -> int -> int -> unit

val residency_drop : t -> int -> int -> unit

(** Does this server's algorithm/configuration send update
    notifications (and hence need the residency directory at all)? *)
val notifies : t -> bool

(** Start background services: the lease-reclamation sweep (fault plans
    with a positive lease), and — when the plan can crash the server —
    the crash/restart gremlin and the periodic checkpointer.  A server
    crash drops all volatile state (lock table, version table, buffer
    pool, admission queues, in-flight requests) instantaneously; recovery
    replays the durable redo log from the last checkpoint, paying the
    log-disk read-back, then broadcasts [Proto.Server_restart] so clients
    can run their per-protocol reconstruction.  Handler processes caught
    mid-flight by a crash are fenced by an epoch counter and die
    silently.  A no-op for inert plans.

    [?crash_rng] overrides the crash/restart schedule stream — sharded
    assemblies pass {!Fault.Injector.shard_stream} so each shard fails
    independently; the default is the single-server stream. *)
val start : ?crash_rng:Sim.Rng.t -> t -> unit

(** The server CPU endpoint (for charging inbound messages). *)
val port : t -> Proto.port

(** Deliver one client message: spawns a handler process and returns.
    [ctx] is the delivered copy's causal node id (-1 when causal tracing
    is off); every message the handler emits in response is parented on
    it. *)
val deliver : t -> ctx:int -> Proto.c2s -> unit

(** {1 Introspection (stats, tests)} *)

val buffer : t -> Storage.Lru_pool.t
val locks : t -> Cc.Lock_table.t
val versions : t -> Cc.Version_table.t
val data_disks : t -> Storage.Disk.t array
val log_disk : t -> Storage.Disk.t option
val active_count : t -> int
val ready_queue_length : t -> int
val cpu_utilization : t -> float
val mean_disk_utilization : t -> float
val reset_stats : t -> unit

(** Is the server currently crashed (between crash and recovery)? *)
val server_down : t -> bool

(** The redo log, when a log disk is configured — the durability audit's
    ground truth ({!Storage.Log_manager.committed_versions}). *)
val log_manager : t -> Storage.Log_manager.t option

(** Commits applied on this shard since the last {!reset_stats} — both
    one-round commits and 2PC decision-commits. *)
val local_commits : t -> int
