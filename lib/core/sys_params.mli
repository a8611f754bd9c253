(** System parameters (paper Table 3), with the Table 5 and Table 4 presets
    used by the experiments. *)

type t = {
  n_clients : int;  (** [NClients] *)
  n_client_cpus : int;  (** [NClientCPUs] *)
  client_mips : float;  (** [ClientMips] *)
  n_server_cpus : int;  (** [NServerCPUs] *)
  server_mips : float;  (** [ServerMips] *)
  n_data_disks : int;  (** [NDataDisks] *)
  n_log_disks : int;  (** [NLogDisks]; 0 disables the log manager *)
  cache_size : int;  (** [CacheSize]: pages per client cache *)
  buffer_size : int;  (** [BufferSize]: pages in the server pool *)
  page_size : int;  (** [PageSize] in bytes *)
  init_disk_inst : int;  (** [InitDiskCost] instructions *)
  server_proc_inst : int;  (** [ServerProcPage] instructions *)
  client_proc_inst : int;  (** [ClientProcPage] instructions *)
  mpl : int;  (** [MPL]: max active transactions at the server *)
  disk : Storage.Disk.params;
  net : Net.Network.params;
  control_msg_bytes : int;
      (** bytes of a data-free protocol message (our constant; the paper
          leaves header size implicit) *)
  stale_drop_all : bool;
      (** on a no-wait staleness abort, drop the whole read set of the
          failed attempt ([true], prevents optimistic livelock) or only the
          page the server named ([false], for the ablation) *)
  restart_policy : restart_policy;
      (** delay before an aborted transaction restarts *)
  callback_grace : float;
      (** seconds a blocked callback-locking request waits for callbacks to
          land before deadlock detection runs (0 = immediate detection,
          which makes retained-lock cycles spuriously abort; see §6) *)
  callback_retain_writes : bool;
      (** extension of the §2.3 design choice: retain {e write} locks across
          transactions too (the paper retains only read locks).  A client
          that rewrites its own hot pages then needs no lock traffic at
          all; writers elsewhere pay an extra callback. *)
  notify_updates : Proto.notify_mode option;
      (** extension: have the server propagate committed updates (push or
          invalidate) to caching clients under {e any} locking algorithm,
          not just no-wait — the "two-phase locking with notification" the
          paper's §5.1 text alludes to.  [None] (default) leaves
          notification to the algorithm itself. *)
}

(** How long an aborted transaction sits out before restarting. *)
and restart_policy =
  | Adaptive  (** exponential with mean = observed mean response (ACL) *)
  | Fixed of float  (** exponential with the given mean *)
  | Immediate  (** no delay *)

(** The Table 5 configuration: 1-MIPS clients, 2-MIPS server, 2 data disks,
    1 log disk, 100-page caches, 400-page buffer, 2 ms network, MPL 50.
    Override the client count with [~n_clients]. *)
val table5 : ?n_clients:int -> unit -> t

(** Table 5 with a 20-MIPS server (§5.3 fast server experiment). *)
val fast_server : ?n_clients:int -> unit -> t

(** Fast server and an infinitely fast network (§5.4). *)
val fast_server_fast_net : ?n_clients:int -> unit -> t

(** The Table 4 configuration reproducing the ACL centralized-DBMS
    comparison: 200 clients, 1-MIPS server, two 35 ms disks, no log disk,
    free messages, 12-page caches, 1-page buffer.  [mpl] is the varied
    parameter. *)
val table4 : mpl:int -> t

(** Seconds of CPU time for [inst] instructions at [mips]. *)
val cpu_seconds : mips:float -> int -> float

val validate : t -> unit
