(** Observability payload of one simulation run (or of every replication
    of a replicated run), attached to [Core.Simulator.result].

    Each replication contributes one {!rep}: its recorded trace, sampled
    series, end-of-run facility snapshots, and engine profile.  Everything
    is plain data computed inside whatever domain ran the simulation, so
    payloads cross {!Sim.Pool} boundaries by value and merge
    deterministically in seed order. *)

(** End-of-run statistics of one service facility (CPU, disk, wire). *)
type fac_snapshot = {
  fac_name : string;
  fac_capacity : int;
  fac_utilization : float;
  fac_mean_queue : float;
  fac_max_queue : int;  (** longest queue observed in the window *)
  fac_busy_time : float;  (** cumulative busy unit-seconds *)
  fac_completions : int;
}

val snapshot_facility : Sim.Facility.t -> fac_snapshot
val pp_fac_snapshot : Format.formatter -> fac_snapshot -> unit

type rep = {
  rep_seed : int;
  trace : Recorder.entry array;  (** emission order; empty if tracing off *)
  trace_dropped : int;  (** entries lost to the ring limit *)
  series : Series.t option;
  facilities : fac_snapshot list;
  profile : Sim.Engine.profile option;
  spans : Span.entry array;  (** emission order; empty if spans off *)
  spans_dropped : int;  (** span entries lost to the ring limit *)
  metrics : Metrics.t option;  (** this replication's registry *)
  causal : Causal.entry array;  (** emission order; empty if causal off *)
  causal_dropped : int;  (** causal entries lost to the ring limit *)
}

type t = { reps : rep list }

(** Concatenate payloads in argument order (replication order). *)
val merge : t list -> t

(** All replications' entries tagged with their replication index, in
    (rep, time, seq) order — the deterministic merged trace. *)
val merged_trace : t -> (int * Recorder.entry) array

(** All replications' span entries, rep-tagged in seed order. *)
val merged_spans : t -> (int * Span.entry) array

(** All replications' causal entries, rep-tagged in seed order. *)
val merged_causal : t -> (int * Causal.entry) array

(** One registry for the whole run: per-rep registries merged in seed
    order (exact on counters and histogram buckets). *)
val merged_metrics : t -> Metrics.t option

val total_spans : t -> int
val causal_dropped : t -> int

(** The channels whose ring wrapped in some replication — ["trace"],
    ["span"], ["causal"], in that order — each with the entries it
    dropped over all replications. *)
val wrapped : t -> (string * int) list
