(** Shared experiment-harness vocabulary: figures, series, run options, and
    a memoizing runner so figures that share underlying simulations (e.g.
    a response-time figure and its throughput twin) reuse results. *)

type run_opts = {
  warmup : int;  (** warmup commits before the measurement window *)
  measured : int;  (** commits measured per run *)
  reps : int;  (** independent replications averaged *)
  seed : int;
  max_sim_time : float;
}

(** 200 warmup + 1500 measured commits, 1 rep — a few seconds per figure. *)
val default_opts : run_opts

(** 100 + 600 commits: smoke-test speed, noisier numbers. *)
val quick_opts : run_opts

(** What a figure plots. *)
type metric = Response_time | Throughput

type series = {
  label : string;  (** algorithm name *)
  points : (float * Core.Simulator.result) list;  (** x value, full result *)
}

type figure = {
  fig_id : string;  (** e.g. "fig9(b)" *)
  title : string;
  xlabel : string;
  metric : metric;
  series : series list;
}

val metric_value : metric -> Core.Simulator.result -> float

(** Student-t confidence interval (default 95 %) across the metric's
    replications; unavailable ({!Obs.Run_stats.available} false) below
    two replications. *)
val metric_ci :
  ?confidence:float -> metric -> Core.Simulator.result -> Obs.Run_stats.ci

(** A memoizing simulation runner, optionally backed by a pool of worker
    domains ({!Sim.Pool}). *)
type runner

(** [make_runner ?jobs opts] — [jobs] (default 1, clamped to at least 1) is
    the number of domains {!run_build} and replicated runs may use. *)
val make_runner : ?jobs:int -> run_opts -> runner

val jobs : runner -> int

(** [run runner spec] — run (or reuse) the simulation for [spec]; the
    spec's warmup/measured/seed fields are overridden from the options.
    Replications of the spec run on the pool when [jobs > 1]. *)
val run : runner -> Core.Simulator.spec -> Core.Simulator.result

(** [run_build runner build] evaluates [build runner] — typically a
    function assembling one experiment's figures from {!run} calls — with
    the grid cells evaluated across the runner's domains.  With [jobs > 1]
    it first evaluates [build] once in a collecting mode that records every
    uncached spec (assuming, as holds for every experiment in {!Suite},
    that the set of specs requested does not depend on simulation
    results), dispatches the batch through {!Sim.Pool.map}, memoizes, and
    re-evaluates [build] against the warm cache.  Results are identical
    for every jobs count because each cell's randomness comes from its
    spec's seed, not from scheduling.  With [jobs <= 1] it is exactly
    [build runner]. *)
val run_build : runner -> (runner -> 'a) -> 'a

(** The memoization key: a digest over every observable field of the
    normalized spec.  Specs differing in any configuration field —
    including [n_data_disks], [client_mips], [page_size],
    [control_msg_bytes], ... — have distinct keys. *)
val key_of_spec : Core.Simulator.spec -> string

(** Number of distinct simulations executed so far. *)
val runs_executed : runner -> int

(** The executed cells whose run stopped before its commit target
    ([stop <> Target_reached]) since the last call, in execution order.
    Their numbers describe a wedged or truncated run. *)
val take_short : runner -> Core.Simulator.result list
