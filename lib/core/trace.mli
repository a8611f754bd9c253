(** Protocol event tracing (compatibility shim over {!Obs.Recorder}).

    Emit sites in the server, client, and simulator report every
    interesting protocol event with its simulated timestamp: client
    requests, server grants and replies, aborts, callbacks,
    notifications, commits.  Costs nothing when no sink or recorder is
    installed.

    The sink slot is domain-local and shared with {!Obs.Recorder}:
    the simulation assembly ([Shard.Shard_sim]) installs a typed
    recorder in whatever domain runs a simulation — including {!Sim.Pool} workers — so traced runs work at
    any [-j]; the filled buffer travels back by value inside the run's
    result and merges deterministically (see {!Obs.Run.merged_trace}).
    The callback sink below is the legacy interface, kept for simple
    stream-to-stdout uses such as the [protocol_trace] example. *)

type event = Obs.Event.t =
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
  | Client_crash of { client : int }
  | Client_recover of { client : int; downtime : float }
  | Lock_reclaimed of { client : int; pages : int list }
  | Retransmit of { client : int; xid : int }
  | Server_crash of { killed : int }
  | Server_recover of { downtime : float; recovery : float }
  | Checkpoint of { versions : int }
  | Log_replayed of { records : int; pages : int }

val event_to_string : event -> string

(** Install a callback sink receiving [(simulated_time, event)] in this
    domain.  Replaces any recorder installed here. *)
val set_sink : (float -> event -> unit) -> unit

(** Remove this domain's sink. *)
val clear_sink : unit -> unit

(** Emit an event (no-op when no sink is installed). *)
val emit : float -> event -> unit

(** Is a sink installed?  Lets call sites skip argument construction. *)
val active : unit -> bool
