(** The one observability sink: a domain-local slot holding one run's
    channels.

    [Shard.Shard_sim] installs a sink built from the run's {!Config.t}
    around [Sim.Engine.run] in whatever domain runs the simulation, and
    the filled buffers travel back by value inside the run's result.
    Every emitter below reads the slot and is a no-op when its channel
    is absent; emitters that return an id return [-1] then, and
    [-1] is accepted back wherever an id is expected. *)

type t = {
  trace : Recorder.t option;  (** protocol events *)
  spans : Span.t option;  (** transaction spans *)
  causal : Causal.t option;  (** causal message record *)
  metrics : Metrics.t option;  (** online metrics registry *)
}

(** No channel: every emitter is a no-op. *)
val none : t

(** Fresh buffers for the channels [config] turns on, each ring holding
    at most [config.limit] entries. *)
val of_config : Config.t -> t

(** No channel present. *)
val is_empty : t -> bool

(** This domain's installed sink ({!none} until something installs one). *)
val current : unit -> t

(** [with_ s f] installs [s] in this domain, runs [f], and reinstalls
    the previous sink, even if [f] raises. *)
val with_ : t -> (unit -> 'a) -> 'a

(** {1 Protocol events} *)

(** Is a trace channel installed?  Lets call sites skip building an
    event nobody records. *)
val trace_on : unit -> bool

(** Record an event at simulated time [time]. *)
val emit : float -> Event.t -> unit

(** {1 Spans} *)

val spans_on : unit -> bool

(** Allocate a span id and record the open; see {!Span.open_span}. *)
val open_span :
  time:float -> track:Span.track -> kind:Span.kind -> parent:int -> xid:int -> int

(** Record the close of span [id]; [ok] defaults to [true]. *)
val close_span : time:float -> ?ok:bool -> int -> unit

(** {1 Causal record}  See {!Causal.root} and the functions after it. *)

val causal_on : unit -> bool
val root : time:float -> client:int -> int

val send :
  time:float -> tag:Causal.tag -> bytes:int -> pkts:int -> dup:int -> int

val recv : time:float -> int -> unit
val drop : time:float -> int -> unit

val finish :
  time:float -> parent:int -> xid:int -> client:int -> ok:bool -> unit

(** {1 Metrics} *)

val metrics_on : unit -> bool

(** Add [n] to counter [name]. *)
val incr : string -> int -> unit

(** Record [v] in histogram [name]. *)
val observe : string -> float -> unit
