(** Unbounded FIFO mailboxes between simulation processes.

    [send] never blocks; [recv] blocks until a message is available.
    Multiple receivers are allowed; messages are delivered in FIFO order to
    whichever receiver wins the race (deterministically, in resume order). *)

type 'a t

(** [create eng] is an empty mailbox. *)
val create : Engine.t -> 'a t

(** Messages queued and not yet received. *)
val pending : 'a t -> int

(** Enqueue a message and wake one blocked receiver, if any, or start the
    consumer of an empty served mailbox. *)
val send : 'a t -> 'a -> unit

(** [serve mb ~name f] hands each later message of [mb] to [f], in FIFO
    order, in a process named [name] that exists only while [mb] is
    non-empty; it starts at now, where a blocked receiver's wake would
    run, and [f] may block.  Raises [Invalid_argument] unless [mb] is
    unserved, empty and unwaited. *)
val serve : 'a t -> name:string -> ('a -> unit) -> unit

(** Dequeue the oldest message, blocking if the mailbox is empty.  Raises
    [Invalid_argument] on a served mailbox. *)
val recv : 'a t -> 'a

(** Dequeue the oldest message if one is available, without blocking.
    Raises [Invalid_argument] on a served mailbox. *)
val recv_opt : 'a t -> 'a option

(** [recv_timeout mb ~timeout] blocks like {!recv} but gives up after
    [timeout] simulated seconds, returning [None].  A message that arrives
    at exactly the deadline may be delivered to a later receive instead.
    Timed-out waiters never steal a wake-up: a [send] that lands on one
    passes the wake to the next blocked receiver.  Raises
    [Invalid_argument] on a served mailbox. *)
val recv_timeout : 'a t -> timeout:float -> 'a option
