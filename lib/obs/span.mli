(** Typed, nested transaction spans.

    A span is an [Open]/[Close] pair in a per-domain ring buffer,
    identified by an id unique within one replication, with an explicit
    parent id (so concurrent spans on one track cannot produce false
    containment violations).  The buffer is a {!Ring} reached through
    the {!Sink} installed around [Sim.Engine.run] in whatever domain
    runs the simulation, and the filled buffer travels back by value —
    span artifacts are byte-identical at any [-j].  Emission only reads
    the clock it is handed: no holds, no randomness, so enabling spans
    never perturbs simulation results. *)

type track =
  | Client of int  (** a client's timeline (its router included) *)
  | Server of int  (** a server, by shard id (0 unsharded) *)

type kind =
  | Xact  (** whole transaction: first attempt's start to commit *)
  | Attempt  (** one attempt (one xid) *)
  | Think  (** client think-time hold *)
  | Client_cpu  (** client compute: CPU charges, sends, cache work *)
  | Fetch_wait  (** blocked on a lock/write fetch round trip *)
  | Cert_wait  (** blocked on a certification read round trip *)
  | Commit_wait  (** blocked on the commit round trip (2PC included) *)
  | Abort_work  (** abort cleanup between a restart and its delay *)
  | Restart_wait  (** back-off delay before the next attempt *)
  | Lock_wait  (** server: a queued lock request *)
  | Cb_round  (** server: lock wait resolved by a callback round *)
  | Disk_io  (** server: data-disk access *)
  | Log_force  (** server: WAL force *)
  | Prepare_2pc  (** router: prepares out, collecting votes *)
  | Decide_2pc  (** router: decision out, collecting acks *)

val kind_name : kind -> string
val track_name : track -> string

type ev =
  | Open of { id : int; parent : int; track : track; kind : kind; xid : int }
  | Close of { id : int; ok : bool }

type entry = { sp_time : float; sp_seq : int; sp_ev : ev }

type t

(** An empty buffer; [limit] as in {!Ring.create}. *)
val create : ?limit:int -> unit -> t

(** Entries in emission order (ring-truncated to the last [limit]). *)
val entries : t -> entry array

val dropped : t -> int

(** Allocate an id and record the open.  [parent = -1] makes a root
    span.  Instrumentation reaches this through {!Sink.open_span}. *)
val open_span :
  t -> time:float -> track:track -> kind:kind -> parent:int -> xid:int -> int

(** Record the close; [ok:false] marks a span ended by an abort or a
    crash. *)
val close_span : t -> time:float -> ok:bool -> int -> unit

(** {2 Self-validation} *)

type check = {
  ck_opened : int;
  ck_closed : int;
  ck_unclosed : int;  (** spans still open when the run ended: allowed *)
  ck_errors : string list;  (** empty iff the record is well-formed *)
}

(** Check one replication's record: non-decreasing timestamps, balanced
    and unique open/close, parent containment.  [dropped > 0] relaxes
    the orphan checks (the ring may have overwritten the opens). *)
val validate : ?dropped:int -> entry array -> check

val check_ok : check -> bool
val pp_check : Format.formatter -> check -> unit
