(** Benchmark telemetry snapshots — the longitudinal half of the
    observability story.

    [bench --json FILE] serialises one {!snapshot} per harness run:
    per-experiment wall-clock and engine event counts, microbenchmark
    medians with replication confidence intervals, an engine probe
    (events/sec, event-heap high-water mark), and full provenance
    ({!Report.repro_line}: seed, jobs, git describe, OCaml version,
    host).  [ccsim bench-diff old.json new.json] reads two snapshots back
    with {!of_json} and compares them with {!diff}, which is
    noise-aware: microbench deltas whose confidence intervals overlap are
    never regressions, sub-jitter wall-clock cells are ignored, and
    host/compiler mismatches are reported as notes.

    Serialization round-trips through the in-repo JSON parser
    ({!Obs.Export.parse_json}); no external dependency is involved. *)

val schema_version : string

type experiment = {
  e_id : string;
  e_wall_s : float;  (** wall-clock seconds to run + render the experiment *)
  e_sims : int;  (** simulations newly executed (cache misses) *)
  e_events : int;  (** engine events summed over the figure cells *)
}

(** [events / wall_s], 0 when the wall time is not positive. *)
val events_per_sec : events:int -> wall_s:float -> float

type micro = {
  m_name : string;
  m_runs : int;
  m_median_ns : float;
  m_ci_lo_ns : float;
      (** 95 % CI endpoints of the mean run time; both equal the median
          when fewer than two runs were taken *)
  m_ci_hi_ns : float;
}

type probe = {
  p_wall_s : float;
  p_events : int;
  p_heap_hwm : int;  (** event-heap high-water mark of the probe run *)
}

(** One cell of the client-population scalability sweep
    ({!Client_sweep}).  Cells are keyed by (algo, clients) in diffs;
    events/sec falling or heap_hwm rising past the threshold is a
    regression. *)
type sweep_cell = {
  w_clients : int;
  w_algo : string;
  w_events : int;
  w_wall_s : float;
  w_heap_hwm : int;
  w_live_words_per_client : int option;
      (** live heap per client at the end of the run; [None] in
          snapshots written before the sweep reported it *)
}

(** One cell of the shard sweep (the [shard-sweep] experiment): simulated
    paper-style figures under 1-16 shard servers with presumed-abort 2PC.
    Deterministic for a given seed, so diffs treat drift as semantic
    change, never noise: throughput past the threshold regresses, and any
    2PC-counter change is surfaced as a note. *)
type shard_cell = {
  h_shards : int;
  h_pattern : string;  (** access pattern label: uniform | zipf-hot *)
  h_throughput : float;  (** committed transactions per simulated second *)
  h_xshard_commits : int;  (** cross-shard 2PC commits *)
  h_prepares : int;  (** prepare slices force-logged *)
}

(** One cell of the commit-latency decomposition: per-protocol quantiles
    of simulated end-to-end commit latency, recorded by the span/metrics
    layer ({!Obs.Metrics}) on a fixed-seed run.  Deterministic like the
    shard cells, so diffs treat drift as semantic change with no noise
    band. *)
type latency_cell = {
  l_algo : string;
  l_shards : int;
  l_p50 : float;  (** simulated seconds *)
  l_p95 : float;
  l_p99 : float;
  l_mean : float;
  l_xacts : int;  (** committed transactions behind the quantiles *)
}

(** One cell of the message-amplification table: network cost of one
    committed transaction under a protocol at a shard count, measured by
    the causal message record ({!Obs.Causal}) on a fixed-seed run.
    Deterministic like the latency cells, so diffs treat drift as
    semantic change (the protocol started sending more messages per
    commit) with no noise band. *)
type causal_cell = {
  z_algo : string;
  z_shards : int;
  z_msgs_per_commit : float;  (** messages sent per committed xact *)
  z_pkts_per_commit : float;
  z_bytes_per_commit : float;
  z_commits : int;  (** committed transactions behind the ratios *)
}

type snapshot = {
  s_schema : string;  (** {!schema_version} *)
  s_repro : string;  (** {!Report.repro_line} verbatim *)
  s_git : string;
  s_ocaml : string;
  s_host : string;
  s_seed : int;
  s_jobs : int;
  s_reps : int;
  s_quick : bool;
  s_experiments : experiment list;
  s_micro : micro list;
  s_sweep : sweep_cell list;
      (** empty when the sweep was not run; the field is additive — old
          snapshots without it still parse *)
  s_shard : shard_cell list;
      (** empty when the shard sweep was not run; additive like
          [s_sweep] *)
  s_latency : latency_cell list;
      (** empty when the latency cells were not run; additive like
          [s_sweep] *)
  s_causal : causal_cell list;
      (** empty when the causal cells were not run; additive like
          [s_sweep] *)
  s_engine : probe option;
}

(** Emit the snapshot as JSON (parses with {!Obs.Export.validate_json};
    floats are [%.17g] so {!of_json} round-trips exactly). *)
val to_json : snapshot -> string

(** Parse a snapshot back.  [Error] on malformed JSON, missing fields, or
    a schema version mismatch. *)
val of_json : string -> (snapshot, string) result

(** {1 Comparison} *)

type finding = {
  f_metric : string;
  f_base : float;
  f_cur : float;
  f_slowdown : float;  (** > 1 means the current snapshot is slower *)
}

type verdict = {
  v_threshold : float;
  v_regressions : finding list;
  v_improvements : finding list;
  v_notes : string list;  (** unmatched entries, host/compiler mismatches *)
}

(** [diff ?threshold ~baseline ~current ()] — a metric regresses when it
    slows past [1 + threshold] (default 0.25) {e and} the change is not
    explainable as noise: microbench CIs must not overlap, and wall-clock
    cells below the jitter floor (50 ms) never regress.  Improvements
    past the mirror-image ratio are reported too. *)
val diff :
  ?threshold:float -> baseline:snapshot -> current:snapshot -> unit -> verdict

(** No regressions? *)
val ok : verdict -> bool

val pp_finding : Format.formatter -> finding -> unit

(** Notes, then improvements, then regressions, then a one-line summary. *)
val pp_verdict : Format.formatter -> verdict -> unit
