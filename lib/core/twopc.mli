(** Presumed-abort two-phase commit, as two pure state machines.

    Every 2PC outcome decision lives here: when the coordinator commits,
    aborts, fans a decision out, answers the client or gives up, and
    what a participant does with each message for a transaction in each
    status.  [Shard.Router] and [Core.Server] only interpret the
    actions: they send the messages, force the log, release locks,
    install pages and emit spans and metrics.  The module has no engine,
    log, lock table, network or observability dependency, so
    [test/test_twopc.ml] can explore it exhaustively. *)

(** The coordinator of one 2PC attempt (one per cross-shard commit). *)
module Coordinator : sig
  type phase =
    | Voting  (** prepares are out; collecting votes *)
    | Commit_point_sent
        (** every vote was yes; commit went to the decider alone, whose
            durable commit record is the global commit point *)
    | Committing  (** the commit point is durable; fanning commit out *)
    | Aborting  (** the outcome is abort; fanning abort out *)

  (** ['v] is the payload an acknowledgement carries (the router's new
      page versions); the machine stores it and never looks at it. *)
  type 'v t = private {
    participants : int list;  (** ascending shard ids *)
    decider : int;  (** the lowest participant *)
    phase : phase;
    votes : (int * bool) list;  (** by shard, ascending *)
    acks : (int * (bool * 'v)) list;
        (** the first acknowledgement of each shard, ascending *)
    stale : int list;  (** stale pages named by no-votes *)
  }

  type 'v input =
    | Vote of { shard : int; ok : bool; stale : int list }
    | Decide of { commit : bool; amnesia : bool }
        (** the answer to {!Decision_point}: [amnesia] is the
            environment's draw of whether the coordinator crashes there *)
    | Ack of { shard : int; committed : bool; versions : 'v }
    | Retransmit  (** the client re-sent its commit *)
    | Superseded  (** the client moved on to a new transaction *)

  type action =
    | Send_prepare of int
    | Send_decision of { shard : int; commit : bool }
    | Decision_point of bool
        (** every vote is in (or one said no): step [Decide] next *)
    | Reply  (** every participant acked: tell the client {!committed} *)
    | Forget of { aborted : bool }
        (** drop the attempt; [aborted]: it ends as an abort the client
            never hears about *)
    | Contradiction of string
        (** a participant acknowledged the opposite outcome *)

  (** A fresh attempt and its prepares, one per participant. *)
  val start : int list -> 'v t * action list

  val step : 'v t -> 'v input -> 'v t * action list

  (** Is [action] still due in [t]?  An interpreter whose sends suspend
      checks each action against the state current when it runs it:
      another input may have been stepped meanwhile.  A send is due
      while its shard has not answered, the reply once every shard
      has. *)
  val due : 'v t -> action -> bool

  (** The outcome the reply reports. *)
  val committed : 'v t -> bool
end

(** One participant slice: what a shard does with each 2PC input for one
    transaction id, given that transaction's status on the shard. *)
module Participant : sig
  (** ['r] is the recorded final reply a retransmission replays. *)
  type 'r status =
    | Absent  (** nothing known here *)
    | Preparing  (** a live slice that has not voted yes yet *)
    | Prepared  (** voted yes; in doubt until the decision *)
    | Deciding of bool
        (** applying a decision: the log force, installs and
            notifications run now.  A commit is not durable yet, so
            nothing about the xid is answered until it is; an abort's
            tombstone is already set, so everything but a query is
            answered as aborted. *)
    | Committed of 'r option
        (** [Some]: a recorded final reply; [None]: only the durable
            commit record survives (after a crash) *)
    | Aborted of 'r option
        (** tombstoned ([None]), or a negative final reply recorded *)

  type input =
    | Prepare  (** a Prepare slice arrived *)
    | Prepare_admitted
        (** the same Prepare, again, once its slice is admitted and its
            operations are serialized *)
    | Forced  (** the slice's prepare record is durable *)
    | Decision of bool
    | Query  (** an outcome query from a participant; we are the decider *)
    | Nag of { decider : bool }
        (** the in-doubt timer fired; [decider]: this shard decides *)
    | Superseded
        (** the same client sent traffic for a newer transaction *)

  type 'r action =
    | Vote of bool
    | Replay of 'r  (** re-send the recorded final reply *)
    | Ack of bool  (** a fresh, unrecorded acknowledgement *)
    | Ack_durable
        (** acknowledge commit with the versions of the durable record *)
    | Admit  (** admit the slice, then step [Prepare_admitted] *)
    | Prepare_slice
        (** validate: abort and vote no, or force the prepare record and
            step [Forced] *)
    | Hold_in_doubt
        (** record the slice as prepared and arm its in-doubt timer *)
    | Resolve of { commit : bool; ack : bool }
        (** apply the decision to the prepared slice; with [ack], record
            and send the acknowledgement when done.  The status is
            [Deciding commit] for the whole resolution. *)
    | Kill  (** abort the live slice, silently *)
    | Tombstone of { force : bool }
        (** remember the abort; [force]: and force an abort record *)
    | Answer of bool  (** send the outcome to the querying shard *)
    | Query_decider  (** ask the decider, and re-arm the timer *)

  (** The one status lookup, facts in precedence order: [finished] is
      the recorded final reply with its verdict, [durable] a commit
      record rebuilt from the log, [live] an open execution slice. *)
  val status :
    prepared:bool ->
    deciding:bool option ->
    tombstoned:bool ->
    finished:('r * bool) option ->
    durable:bool ->
    live:bool ->
    'r status

  (** The status the actions lead to (before any [Resolve] completes)
      and the actions, in order. *)
  val step : 'r status -> input -> 'r status * 'r action list
end
