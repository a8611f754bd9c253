(** Charged message transport between client and server endpoints.

    Implements the paper's §3.4 cost accounting for messages: [MsgCost]
    instructions per packet at the sending CPU (blocking the sender
    process), the wire occupancy per packet (via {!Net.Network}), and
    [MsgCost] per packet at the receiving CPU before delivery (queued
    FCFS with that CPU's other work, but not run in a process). *)

(** [use_cpu port inst] blocks the calling process for [inst] instructions
    of FCFS service on [port]'s CPU.  No-op for [inst <= 0]. *)
val use_cpu : Proto.port -> int -> unit

(** [send ?tag net ~msg_inst ~src ~dst ~bytes ~deliver] charges the
    sender, transmits asynchronously, charges the receiver, then runs
    [deliver] (typically a mailbox send).  The caller resumes as soon as
    the sender CPU charge completes.  The receive charge is a
    {!Sim.Facility.submit} on the receiving CPU, and [deliver] runs as a
    plain event after it, so [deliver] must not block (see
    {!Net.Network.post}).  [tag] is the message's causal trace context;
    [deliver] receives the delivered copy's causal node id, -1 when
    causal tracing is off. *)
val send :
  ?tag:Obs.Causal.tag ->
  Net.Network.t ->
  msg_inst:int ->
  src:Proto.port ->
  dst:Proto.port ->
  bytes:int ->
  deliver:(int -> unit) ->
  unit
