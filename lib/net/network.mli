(** Network manager (paper §3.3.1).

    Clients and server share one FCFS medium (a 1990 Ethernet).  Messages
    are split into packets of at most [packet_size] bytes; every packet
    occupies the wire for an exponentially distributed time with mean
    [net_delay].  Per-packet CPU send/receive costs ([MsgCost]) are charged
    by the caller on the endpoint CPUs — the network only models the wire.

    [net_delay = 0] models the infinitely fast network of §5.4: packets
    still count (for statistics) but take no simulated time. *)

type params = {
  net_delay : float;  (** [NetDelay]: mean per-packet wire time (s) *)
  packet_size : int;  (** [PacketSize]: max bytes per packet *)
  msg_inst : int;  (** [MsgCost]: instructions to send or receive a packet *)
}

val default_params : params

type t

(** [create ?faults eng ~rng params] is an idle network.  With [faults]
    every {!post} draws {!Fault.Injector.message} once, in post order,
    and applies the verdict: a drop discards the message, an extra delay
    postpones each copy before its packets queue for the wire, and
    [copies > 1] transmits independent duplicates.  Without [faults] no
    draw is made and every message is one on-time copy.  The injector's
    draws come from its own stream, never from [rng]. *)
val create :
  ?faults:Fault.Injector.t -> Sim.Engine.t -> rng:Sim.Rng.t -> params -> t

val params : t -> params

(** Packets needed for a message body of [bytes] (at least 1). *)
val packets_for : t -> bytes:int -> int

(** [post t ?tag ~bytes ~deliver] transmits a message asynchronously: the
    caller returns immediately; each transmitted copy is a chain of
    events that sends its packets over the wire in FCFS order (one
    {!Sim.Facility.submit} per packet), then invokes [deliver]
    (typically: charge receive CPU and enqueue into the destination
    mailbox).  No process is spawned, and [post] may be called from a
    plain event.  [deliver] runs as a plain event, so it must not block:
    a receiver that has to wait spawns its own process.

    {!post} is the one place that counts a message: it counts the post,
    the packets of every transmitted copy, the fault verdict (drop,
    delay, duplicate), and the per-kind figures below, and it emits the
    [Msg_dropped] / [Msg_delayed] / [Msg_duplicated] trace events.

    [tag] is the message's causal trace context.  When present it feeds
    the per-kind counters ({!kind_stats}) and — only if an
    [Obs.Causal] sink is installed — records one Send/Recv node per
    transmitted copy (fault-injected duplicates get distinct duplicate
    indexes; drops record Send+Drop).  [deliver] receives the copy's
    causal node id, or -1 when causal tracing is off. *)
val post :
  ?tag:Obs.Causal.tag -> t -> bytes:int -> deliver:(int -> unit) -> unit

(** Messages posted, dropped ones included. *)
val messages_sent : t -> int

(** Packets transmitted (or begun). *)
val packets_sent : t -> int

(** Posts the fault injector dropped. *)
val messages_dropped : t -> int

(** Posts the fault injector held back by an extra delay. *)
val messages_delayed : t -> int

(** Posts the fault injector duplicated (counted once per post, however
    many extra copies it made). *)
val messages_duplicated : t -> int

(** Per-message-kind wire accounting, keyed by [tag.tg_kind]: one
    message per tagged {!post} (dropped or not), packets and bytes per
    transmitted copy (so duplicates count and drops do not). *)
type kind_stat = {
  ks_msgs : int;
  ks_pkts : int;
  ks_bytes : int;
  ks_retx : int;  (** posts with a retry index > 0 *)
  ks_dups : int;  (** extra fault-injected copies beyond the original *)
}

(** Sorted per-kind counters; empty if no post carried a tag. *)
val kind_stats : t -> (string * kind_stat) list

(** Wire utilization over the measurement window. *)
val utilization : t -> float

(** Time-average number of packets queued for the wire. *)
val mean_queue_length : t -> float

(** Longest wire queue observed in the window. *)
val max_queue_length : t -> int

(** Cumulative wire busy seconds in the window. *)
val busy_time : t -> float

(** Zero every counter above and the wire statistics: the start of the
    measurement window. *)
val reset_stats : t -> unit
