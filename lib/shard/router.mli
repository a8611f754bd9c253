(** Client-side directory router and two-phase-commit coordinator.

    One router fronts each client.  It owns the page->shard directory
    ({!Shard_map}), splits the client's traffic per shard, and — for
    transactions whose commit touches more than one shard — runs
    presumed-abort two-phase commit:

    + [Prepare] fans out one slice (read-set, updates, releases filtered
      by shard) to every participant; each validates, force-logs the
      slice plus a prepare record, and answers with a [Vote].
    + On unanimous yes the commit decision goes to the {e decider}
      (lowest participant shard) {e alone}; its durable commit record is
      the global commit point.
    + Only after the decider acknowledges does the decision fan out to
      the remaining participants; on any no-vote the abort decision fans
      out immediately.
    + The client's [Commit_reply] is delivered only once {e every}
      participant acknowledged — the lock table is keyed by client, so
      the next transaction must not start while an old slice survives
      anywhere.

    Single-shard commits — always, when [n_shards = 1] — bypass all of
    this and take the ordinary one-round commit path.

    Presumed abort: no outcome is remembered for aborted transactions;
    the absence of the decider's durable commit record {e is} the abort.
    Under coordinator-crash fault plans the router can forget an
    in-flight attempt at the decision point ("amnesia"); prepared
    participants then either re-vote on the retransmitted prepare or
    resolve through the shard-to-shard termination protocol
    ([Outcome_query], answered from durable state only). *)

type t

(** [amnesia] is drawn once per 2PC attempt at the decision point;
    [send] delivers one message to a shard (charged to the client's
    CPU), carrying the causal parent node id and retry index for the
    message's trace tag; [now] reads the engine clock (for 2PC
    span/metric emission only — never to make decisions);
    [deliver_client] puts a server-to-client message in the client's
    real inbox, bypassing the network (the router IS the client's
    network endpoint) — its first argument is the causal node id the
    message arrived under (-1 when tracing is off). *)
val create :
  map:Shard_map.t ->
  client_id:int ->
  metrics:Core.Metrics.t ->
  amnesia:(unit -> bool) ->
  send:(int -> parent:int -> retry:int -> Core.Proto.c2s -> unit) ->
  now:(unit -> float) ->
  deliver_client:(int -> Core.Proto.s2c -> unit) ->
  t

(** The client's [to_server]: route one outbound message.  [parent] and
    [retry] are the causal tag fields the client attached; shard-bound
    copies inherit them.  Decisions the router originates later (vote
    collection, redrives) are parented on the last 2PC message it
    consumed. *)
val route : t -> parent:int -> retry:int -> Core.Proto.c2s -> unit

(** Inbound server-to-client traffic from [shard]: votes and decision
    acknowledgements terminate here; everything else is forwarded to the
    client (with per-shard restart epochs folded into one monotone
    virtual epoch).  [ctx] is the delivered copy's causal node id. *)
val on_s2c : t -> shard:int -> ctx:int -> Core.Proto.s2c -> unit
