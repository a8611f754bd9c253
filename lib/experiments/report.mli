(** Rendering of experiment outputs as the paper-style tables
    [ccsim exp] prints, plus CSV and gnuplot files for external plotting. *)

(** Print one figure as a table: one row per x value, one column per
    algorithm.  Every cell carries its 95 % replication confidence
    half-width ("3.912 ±0.135"; "±n/a" at [reps = 1], where no interval
    exists), and a figure whose cells have intervals gets a pooled
    relative-half-width footer.  [detail] adds abort/hit/message
    columns.  A cell that stopped before its commit target prints
    ["short N/M"] ([N] commits of [target]) in place of its numbers. *)
val print_figure :
  ?detail:bool -> target:int -> Format.formatter -> Exp_defs.figure -> unit

(** The 95 % CI of every cell of the figure, in series-then-point order. *)
val figure_cis : Exp_defs.figure -> Obs.Run_stats.ci list

val print_output :
  ?detail:bool -> target:int -> Format.formatter -> Suite.output -> unit

(** Quote one CSV field per RFC 4180: fields containing commas, quotes,
    or newlines are wrapped in double quotes with internal quotes
    doubled; anything else is returned unchanged. *)
val csv_field : string -> string

(** CSV lines for a figure: header then
    [fig_id,metric,x,label,value,ci_lo,ci_hi,aborts,hit_ratio,msgs_per_commit,stop].
    [ci_lo]/[ci_hi] are the 95 % replication interval endpoints, empty
    when no interval exists ([reps = 1]).  [stop] is
    {!Core.Simulator.stop_label}: a row whose [stop] is not [target]
    describes a run that ended short, whatever its numbers say.
    Free-text fields are escaped with {!csv_field}. *)
val figure_csv : Exp_defs.figure -> string list

(** [repro_line ~seed ~jobs] is a
    ["# repro: seed=… jobs=… git=… ocaml=… host=…"] provenance comment
    ([git describe --always --dirty], or "unknown" outside a git
    checkout; hostname from the kernel or [$HOSTNAME]). *)
val repro_line : seed:int -> jobs:int -> string

(** [write_gnuplot ~dir fig] writes [<id>.dat] (x column plus one column
    per series) and a ready-to-run [<id>.gp] script into [dir] (created if
    missing).  Returns the script path. *)
val write_gnuplot : dir:string -> Exp_defs.figure -> string
