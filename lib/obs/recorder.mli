(** The protocol-event channel: a ring of typed {!Event.t} values keyed
    by [(sim_time, seq)].

    Emit sites report events through {!Sink.emit}, which appends to the
    recorder installed in this domain's sink.  [Shard.Shard_sim]
    installs a fresh recorder in whatever domain runs the simulation —
    the caller's or a {!Sim.Pool} worker's — and the filled buffer
    returns to the caller by value inside the run's result, so traces
    from parallel runs merge deterministically afterwards. *)

(** One recorded event.  [seq] is the recorder-local emission index, so
    [(time, seq)] totally orders a buffer even among equal timestamps. *)
type entry = { time : float; seq : int; ev : Event.t }

type t

(** [create ?limit ()] is an empty recorder holding at most [limit]
    entries (default {!Ring.default_limit}).  Past the limit the buffer wraps:
    the oldest entries are overwritten and counted in {!dropped}. *)
val create : ?limit:int -> unit -> t

(** Entries currently held. *)
val length : t -> int

(** Entries overwritten after the buffer wrapped. *)
val dropped : t -> int

(** Append one event at simulated time [time]. *)
val add : t -> time:float -> Event.t -> unit

(** Held entries in emission order (ascending [seq]). *)
val entries : t -> entry array
