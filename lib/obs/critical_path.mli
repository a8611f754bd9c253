(** Latency decomposition from span records.

    The client instrumentation tiles each committed transaction's
    [Xact] span with leaf phase segments; summing them per phase
    decomposes end-to-end commit latency additively.  Server and router
    spans overlap the client's wait phases (the waterfall's lower
    layers) and are aggregated per track. *)

type row = { r_kind : Span.kind; r_count : int; r_total : float }

type t = {
  cp_xacts : int;  (** committed transactions (closed [Xact] spans) *)
  cp_end_to_end : float;  (** sum of their engine-clock durations *)
  cp_client : row list;  (** additive leaf phases, fixed kind order *)
  cp_phase_sum : float;  (** sum of the leaf totals *)
  cp_server : (int * row list) list;  (** per shard, ascending *)
  cp_router : row list;  (** 2PC prepare / decide *)
  cp_open_xacts : int;  (** in flight at end, or crash-ended; excluded *)
}

(** Analyze a rep-tagged merged span record (see {!Run.merged_spans}). *)
val analyze : (int * Span.entry) array -> t

(** [cp_end_to_end -. cp_phase_sum]: floating rounding only. *)
val residual : t -> float

(** Does the phase sum reconcile with the engine clock?  [tol] (default
    1e-9) is relative to the end-to-end total. *)
val reconciles : ?tol:float -> t -> bool

val pp : Format.formatter -> t -> unit
