(** Causal message tracing: per-message trace contexts, per-transaction
    causal DAGs, and message-amplification analytics.

    Senders attach a {!tag} to [Net.Network.post] naming the node whose
    receipt caused the send; the network allocates one node per
    transmitted copy and records {!ev.Send}/{!ev.Recv}/{!ev.Drop}
    events, and clients bracket each transaction with {!ev.Root} and
    {!ev.End} at the exact instants the Xact span opens and closes.
    {!analyze} reconstructs one DAG per transaction, validates it
    (acyclic, single root, send ≤ receive, child send ≥ parent receive)
    and extracts the gating chain from the final ack back to the first
    request.

    The buffer is a {!Ring} reached through the {!Sink} installed around
    [Sim.Engine.run], travelling back by value so artifacts are
    byte-identical at any [-j].
    Emission only reads the clock it is handed — no holds, no
    randomness — so enabling causal tracing never perturbs simulation
    results. *)

type ep =
  | Client of int  (** a client endpoint (router included) *)
  | Shard of int  (** a server, by shard id (0 unsharded) *)

(** "client:3" / "shard:0" *)
val ep_name : ep -> string

type ev =
  | Root of { id : int; client : int }
      (** a transaction's causal origin; same instant as its Xact open *)
  | Send of {
      id : int;
      parent : int;  (** causing node, -1 if unknown *)
      xid : int;  (** transaction id, -1 if not bound yet *)
      owner : int;  (** owning client (group fallback), -1 unknown *)
      kind : string;  (** stable protocol-message kind *)
      src : ep;
      dst : ep;
      bytes : int;
      pkts : int;
      retry : int;  (** retransmission index, 0 = first transmission *)
      dup : int;  (** fault-injected duplicate index, 0 = original *)
    }
  | Recv of { id : int }
  | Drop of { id : int }
  | End of { id : int; parent : int; xid : int; client : int; ok : bool }
      (** transaction done; same instant as its Xact close *)

type entry = { cz_time : float; cz_seq : int; cz_ev : ev }

(** The trace context attached to one [Net.Network.post].  Pure data —
    call sites build tags unconditionally; with no sink installed the
    network ignores them. *)
type tag = {
  tg_parent : int;
  tg_xid : int;
  tg_owner : int;
  tg_kind : string;
  tg_src : ep;
  tg_dst : ep;
  tg_retry : int;
}

type t

(** An empty buffer; [limit] as in {!Ring.create}. *)
val create : ?limit:int -> unit -> t

(** Entries in emission order (ring-truncated to the last [limit]). *)
val entries : t -> entry array

val dropped : t -> int

(** {2 Recording}

    Instrumentation reaches these through the {!Sink} emitters of the
    same names. *)

(** Open a transaction's causal group; returns the Root node id. *)
val root : t -> time:float -> client:int -> int

(** Record one transmitted copy; returns its node id.  [dup] is the
    fault-injection duplicate index (0 = the original copy). *)
val send : t -> time:float -> tag:tag -> bytes:int -> pkts:int -> dup:int -> int

(** Record delivery of node [id]. *)
val recv : t -> time:float -> int -> unit

(** Record a fault-injected drop of node [id]. *)
val drop : t -> time:float -> int -> unit

(** Close a transaction's causal group; [parent] is the node whose
    receipt completed it (the final reply), [ok] whether it committed. *)
val finish :
  t -> time:float -> parent:int -> xid:int -> client:int -> ok:bool -> unit

(** {2 Reconstruction, validation and the critical chain} *)

type link = {
  lk_id : int;
  lk_label : string;  (** "root", "end", or the message kind *)
  lk_send : float;
  lk_recv : float;  (** = [lk_send] for root/end links *)
  lk_retry : int;
  lk_dup : int;
}

type dag = {
  dg_rep : int;
  dg_client : int;
  dg_xid : int;
  dg_ok : bool;
  dg_start : float;
  dg_finish : float;
  dg_msgs : int;  (** message sends attributed to this transaction *)
  dg_chain : link list;  (** the gating chain, root first, end last *)
}

type check = {
  ck_groups : int;  (** roots seen *)
  ck_closed : int;  (** groups closed by an End *)
  ck_committed : int;
  ck_msgs : int;
  ck_delivered : int;
  ck_dropped_msgs : int;
  ck_inflight : int;  (** sent, neither delivered nor dropped: allowed *)
  ck_background : int;  (** sends attributable to no transaction *)
  ck_errors : string list;  (** empty iff every DAG is well-formed *)
}

type analysis = {
  an_dags : dag array;  (** closed groups, in close order per rep *)
  an_check : check;
  an_chain_sum : float;
      (** sum of (finish - start) over committed DAGs; reconciles with
          [Critical_path]'s end-to-end sum because Root/End share the
          Xact span's exact open/close instants *)
}

(** Reconstruct and validate rep-tagged entries.  [dropped > 0] relaxes
    the orphan checks (the ring may have overwritten referenced
    nodes). *)
val analyze : ?dropped:int -> (int * entry) array -> analysis

val check_ok : check -> bool
val pp_check : Format.formatter -> check -> unit

(** {2 Message-amplification analytics} *)

type amp = {
  am_kind : string;
  am_msgs : int;
  am_pkts : int;
  am_bytes : int;
  am_retx : int;  (** sends with retry > 0 (first copies only) *)
  am_dups : int;  (** fault-injected duplicate copies *)
}

(** Per-kind totals over every Send node, sorted by kind. *)
val amplification : (int * entry) array -> amp list

(** Observe per-committed-transaction chain shape
    ([ccsim_causal_chain_hops], [ccsim_causal_chain_seconds]) into the
    registry. *)
val register_chain_metrics : Metrics.t -> analysis -> unit
