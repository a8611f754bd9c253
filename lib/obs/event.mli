(** The typed protocol-event vocabulary of the simulator.

    One constructor per observable protocol action: client requests,
    server replies, lock waits and grants, deadlocks, aborts, callbacks,
    notifications, commits, disk reads, and the fault-injection events.
    Call sites emit them through {!Sink.emit}; every analysis and export
    layer consumes them from the trace channel's {!Recorder}. *)

type t =
  | Client_send of { client : int; xid : int; what : string }
  | Server_reply of { client : int; xid : int; what : string }
  | Lock_wait of { client : int; page : int; mode : string }
  | Lock_grant of { client : int; page : int; mode : string }
  | Deadlock of { victim_client : int; cycle : int list }
  | Abort of { client : int; xid : int; reason : string }
  | Callback of { holder : int; page : int }
  | Notify of { client : int; page : int; push : bool }
  | Commit of { client : int; xid : int; n_updates : int }
  | Disk_read of { page : int }
  | Msg_dropped of { bytes : int }
  | Msg_delayed of { bytes : int; by : float }
  | Msg_duplicated of { bytes : int; copies : int }
      (** fault injection transmitted [copies] copies of one message *)
  | Client_crash of { client : int }
  | Client_recover of { client : int; downtime : float }
  | Lock_reclaimed of { client : int; pages : int list }
  | Retransmit of { client : int; xid : int }
  | Server_crash of { killed : int }
      (** server volatile state lost; [killed] in-flight transactions die *)
  | Server_recover of { downtime : float; recovery : float }
      (** server reopened: [downtime] total outage, of which [recovery]
          was spent replaying the log *)
  | Checkpoint of { versions : int }
      (** server forced a committed-version snapshot to the log *)
  | Log_replayed of { records : int; pages : int }
      (** recovery scanned [records] log records / [pages] log pages *)

(** Human-readable one-liner. *)
val to_string : t -> string

(** Stable lower-case tag of the constructor ("lock_wait", "commit", ...). *)
val kind : t -> string

(** The client the event is about, if any ([None] for disk and wire
    events). *)
val actor : t -> int option
