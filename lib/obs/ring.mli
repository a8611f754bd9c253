(** A bounded, chunked, append-only log: the one buffer behind the
    trace, span and causal channels.

    Past [limit] pushes it wraps: the oldest values are overwritten and
    counted in {!dropped}, and {!to_array} returns the last [limit]
    pushes in push order. *)

type 'a t

(** Values per storage chunk; memory grows one chunk at a time. *)
val chunk_size : int

(** The capacity every channel gets unless told otherwise. *)
val default_limit : int

(** An empty log holding at most [limit] values (default
    {!default_limit}).  Raises [Invalid_argument] if [limit < 1]. *)
val create : ?limit:int -> unit -> 'a t

(** Pushes so far: the sequence number the next {!push} receives. *)
val written : 'a t -> int

val push : 'a t -> 'a -> unit

(** Values currently held: [min written limit]. *)
val length : 'a t -> int

(** Values overwritten after the log wrapped: [max 0 (written - limit)]. *)
val dropped : 'a t -> int

(** The held values, oldest first. *)
val to_array : 'a t -> 'a array
