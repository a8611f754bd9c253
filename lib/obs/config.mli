(** Per-run observability switches, carried inside the simulator spec.

    {!off} (the default everywhere) turns every layer off: no {!Sink} is
    installed, no sampler process is spawned, no profiling is enabled,
    and the simulation is bit-identical to one run before this subsystem
    existed. *)

type t = {
  trace : bool;  (** record typed events into a {!Recorder} buffer *)
  series : bool;  (** spawn the fixed-interval facility/lock sampler *)
  sample_interval : float;  (** sampler period, simulated seconds *)
  profile : bool;  (** enable per-process engine profiling *)
  spans : bool;  (** record typed transaction spans into a {!Span} buffer *)
  metrics : bool;  (** install an online {!Metrics} registry *)
  causal : bool;  (** record causal message DAGs into a {!Causal} buffer *)
  limit : int;
      (** capacity of each of the trace, span and causal rings; past it a
          ring drops its oldest entries *)
}

(** Everything disabled — the default. *)
val off : t

val make :
  ?trace:bool ->
  ?series:bool ->
  ?sample_interval:float ->
  ?profile:bool ->
  ?spans:bool ->
  ?metrics:bool ->
  ?causal:bool ->
  ?limit:int ->
  unit ->
  t

(** Trace recording only. *)
val trace_only : t

(** Every layer on. *)
val full : t

(** Spans + metrics: the channels of [ccsim observe --view metrics], and
    what the golden latency rows use. *)
val latency : t

(** Spans + metrics + causal message DAGs: the channels of
    [ccsim observe --view causal]. *)
val causal : t

(** Is any layer on? *)
val enabled : t -> bool
