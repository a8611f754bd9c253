(** Log manager (paper §3.3.4), upgraded to a typed redo log.

    Implements the paper's log-based recovery cost model: commits force the
    transaction's log to a dedicated log disk before the reply is sent
    (sequential write — no seek), and aborts replay the log, paying data-disk
    I/O to undo any updated page that was already forced out of the buffer
    pool.  On top of the cost model the manager now keeps the typed records
    themselves (begin/update/commit/abort/checkpoint), split into a durable
    prefix (everything up to the last force) and a volatile tail, so a
    simulated server crash can {!crash} the tail and {!replay} the durable
    prefix from the last checkpoint — redoing committed transactions and
    discarding uncommitted ones.  The page images are still not
    materialized; only page {e versions} are logged, which is exactly what
    the version-table consistency checks and the durability audit need.

    Disk charging is unchanged from the pure cost model: a force writes
    [log_pages_for n_updates] sequential pages, so runs that never crash
    the server are bit-identical to the previous implementation. *)

type record =
  | Begin of { xid : int }
  | Update of { xid : int; page : int; version : int }
  | Commit of { xid : int }
  | Abort of { xid : int }
  | Checkpoint of { versions : (int * int) list }
      (** snapshot of the committed page-version map *)
  | Prepare of { xid : int; decider : int; read_pages : int list }
      (** 2PC phase one: the transaction's slice on this shard is durable
          and the shard voted yes; [decider] names the shard holding the
          commit point, [read_pages] the pages whose read locks/pins
          recovery must re-establish while the outcome is in doubt *)

type replay_stats = {
  records_replayed : int;  (** records scanned from the replay start *)
  pages_read : int;  (** log pages read back (the charged disk work) *)
  xacts_redone : int;  (** durable commits reinstalled *)
  xacts_discarded : int;  (** aborted or uncommitted transactions dropped *)
}

type t

(** [create eng ~disk ?updates_per_log_page ()] writes log records to
    [disk].  [updates_per_log_page] (default 8) sets how many page-update
    records fit in one log page. *)
val create : Sim.Engine.t -> disk:Disk.t -> ?updates_per_log_page:int -> unit -> t

(** Log pages needed to record [n_updates] page updates (minimum 1 — the
    commit/abort record itself). *)
val log_pages_for : t -> n_updates:int -> int

(** [log_begin t ~xid] appends a buffered begin record.  Nothing is
    charged and nothing becomes durable until the next force; a crash
    before that loses the record together with the transaction. *)
val log_begin : t -> xid:int -> unit

(** [force_pending t] forces the buffered log tail — one sequential page,
    the group-commit write a reader pays before shipping a page whose
    latest committed version is not yet durable (the WAL read rule).
    A no-op when the log is already durable. *)
val force_pending : t -> unit

(** [append_commit t ~xid ~updates] buffers the transaction's update
    records and its commit record without charging or forcing anything.
    Called at version-bump time — before any suspension point — so that
    whoever forces next (group commit) also makes these records durable:
    a reader that observed the bumped versions and then forced its own
    commit can never survive a crash that loses this writer. *)
val append_commit : t -> xid:int -> updates:(int * int) list -> unit

(** [force_commit t ~n_updates] counts one commit and blocks for the
    sequential write of the log tail, charged as [n_updates] update
    records, that makes it durable.  The commit's records are appended
    beforehand with {!append_commit}. *)
val force_commit : t -> n_updates:int -> unit

(** [force_abort t ~xid] appends an abort record for [xid] and blocks
    for its one-page write. *)
val force_abort : t -> xid:int -> unit

(** [force_prepare t ~xid ~decider ~read_pages ~updates] appends the
    transaction's update records plus a prepare record and blocks for the
    forced write — 2PC phase one.  The later commit decision re-appends
    the updates with its commit record, so a checkpoint taken between
    prepare and decision never hides them from replay. *)
val force_prepare :
  t ->
  xid:int ->
  decider:int ->
  read_pages:int list ->
  updates:(int * int) list ->
  unit

(** [checkpoint t] forces a snapshot of the committed page-version map,
    computed from the durable log itself (never from the server's
    volatile version table, which may run ahead of the log between a
    version bump and its commit force — the write-ahead rule).  Recovery
    replays from the last checkpoint, so the pages a future {!replay}
    must read drop to zero here.  Returns the snapshot size (pages in the
    committed map). *)
val checkpoint : t -> int

(** Simulated media behavior of a server crash: the volatile log tail —
    records appended since the last force — is lost.  The durable prefix
    is untouched. *)
val crash : t -> unit

(** [replay t ~into] rebuilds the committed page-version map from the
    durable log, starting at the last checkpoint: checkpoint snapshot
    loaded, durable commits redone, aborted and uncommitted transactions
    discarded.  Blocks for the sequential read-back of every log page
    forced since the checkpoint (one positioning seek) — this is the
    charged recovery work.  [into] is cleared/overwritten as needed. *)
val replay : t -> into:(int, int) Hashtbl.t -> replay_stats

(** Durable transaction outcomes [(xid, committed?)] in log order — what
    a recovered server consults to answer a retransmitted commit whose
    reply was lost in the crash. *)
val durable_outcomes : t -> (int * bool) list

(** [Some updates] iff [xid]'s commit record is durable; the updates let
    a recovered server rebuild the lost commit reply verbatim. *)
val durable_commit_updates : t -> xid:int -> (int * int) list option

(** In-doubt transactions: durable prepare record, no durable outcome.
    [(xid, decider, read_pages, updates)] in prepare order.  What a
    recovering shard must re-protect and resolve via the 2PC termination
    protocol. *)
val in_doubt : t -> (int * int * int list * (int * int) list) list

(** Pure full-log replay (no disk charge): the committed page-version
    map as a sorted association list.  Audit-side ground truth. *)
val committed_versions : t -> (int * int) list

(** Every (page, version) update record of a durably committed
    transaction, over the whole durable log, sorted and de-duplicated.
    The durability audit checks that every version a committed
    transaction read is in this set (or 0, the initial version):
    no uncommitted update may ever be visible to a commit. *)
val durable_committed_pairs : t -> (int * int) list

val records_logged : t -> int
val durable_records : t -> int
val commits_logged : t -> int
val aborts_logged : t -> int
val log_pages_written : t -> int
val reset_stats : t -> unit
