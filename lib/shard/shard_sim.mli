(** The simulation assembly, for every topology.

    Builds one engine, one network, one metrics hub and one database —
    and [spec.n_shards] servers, each owning its contiguous slice of the
    page space with its own lock table, buffer pool, version table and
    WAL ({!Shard_map}).  Only the client/server wiring depends on the
    shard count:

    - [n_shards = 1]: each client sends straight to the one server and
      the server writes straight into the client's inbox.  The server
      keeps the unsharded RNG stream and facility names and is not given
      peers, so it never runs 2PC; one-shard runs are the paper's
      single-server simulator, event for event.
    - [n_shards > 1]: one {!Router} per client splits traffic and
      coordinates presumed-abort two-phase commit, behind one relay
      mailbox per (client, shard).

    Every entry point raises [Invalid_argument] when
    [spec.n_shards < 1]. *)

(** One run, plus the replication state {!Core.Simulator.aggregate}
    pools.  [?audit] collects every committed transaction's read/write
    version summary for the serializability check of {!Cc.History}.
    [?inspect] runs after the simulation ends, with every shard server
    (a one-element array at [n_shards = 1]) and client still intact, for
    end-state invariant sweeps (lock-table consistency, cache coherence,
    crash/recovery bookkeeping). *)
val run_with_stats :
  ?audit:Cc.History.t ->
  ?inspect:(Core.Server.t array -> Core.Client.t array -> unit) ->
  Core.Simulator.spec ->
  Core.Simulator.result * Core.Simulator.rep_stats

(** {!run_with_stats} without the replication state. *)
val run :
  ?audit:Cc.History.t ->
  ?inspect:(Core.Server.t array -> Core.Client.t array -> unit) ->
  Core.Simulator.spec ->
  Core.Simulator.result

(** [run_replicated ?jobs spec ~reps] runs seeds [seed .. seed+reps-1]
    and pools them with {!Core.Simulator.aggregate}.  With [jobs > 1]
    the replications run concurrently on a {!Sim.Pool} of domains;
    results are identical to the sequential run because every
    replication's randomness is derived from its own seed. *)
val run_replicated :
  ?jobs:int -> Core.Simulator.spec -> reps:int -> Core.Simulator.result
