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

(** [post net cfg ~src ~src_ep ~dst ~dst_ep ~parent ~retry ~xid ~owner
    ~kind ~bytes deliver] puts one protocol message on the wire: it
    builds the message's causal tag and {!send}s it at [cfg]'s
    per-packet cost.  [src]/[dst] are the charged CPU endpoints and
    [src_ep]/[dst_ep] the same endpoints as the trace names them;
    [parent] is the node id of the message whose receipt caused this
    send (-1 when none), [retry] the retransmission index (0 = first
    transmission), [xid] the transaction the message belongs to (-1 when
    none) and [owner] the client the trace groups it under (-1 when
    unknown).  Each sender keeps its own owner rule: a client names
    itself ({!Proto.c2s_client}), a server names the client of [xid]
    ({!Proto.xid_client}).  The tag is always built: per-kind network
    accounting runs even without a causal sink.

    The trace keeps [src_ep] and [dst_ep] in every recorded send, so a
    caller passes one shared value per shard rather than allocating a
    [Shard k] per message. *)
val post :
  Net.Network.t ->
  Sys_params.t ->
  src:Proto.port ->
  src_ep:Obs.Causal.ep ->
  dst:Proto.port ->
  dst_ep:Obs.Causal.ep ->
  parent:int ->
  retry:int ->
  xid:int ->
  owner:int ->
  kind:string ->
  bytes:int ->
  (int -> unit) ->
  unit
