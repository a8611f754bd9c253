(** Every experiment of the paper's Sections 4–5, each regenerating the
    rows/series of one or more tables or figures.  See DESIGN.md for the
    experiment index and EXPERIMENTS.md for paper-vs-measured results. *)

open Exp_defs

(** The winner map of Figure 13: rows are write probabilities, columns are
    localities, each cell names the best algorithm (2PL / callback /
    "either" when within 3 %). *)
type decision_map = {
  localities : float list;
  write_probs : float list;
  winners : string array array;  (** [winners.(pw_idx).(loc_idx)] *)
}

type output = Figures of figure list | Map of decision_map

(** §5.1 summary decision map (Figure 13).  The other experiments are
    reached through {!all}. *)
val fig13 : runner -> output

(** All experiments: (id, description, builder). *)
val all : (string * string * (runner -> output)) list

val find : string -> (string * string * (runner -> output)) option

(** The shard counts of the [shard-sweep] experiment. *)
val shard_counts : int list

(** What a list of [ccsim exp] ids selects. *)
type selection = {
  figures : (string * string * (runner -> output)) list;
      (** in the order given; every figure of {!all} for ["all"] *)
  client_sweep : bool;
      (** ["client-sweep"], the simulator scalability sweep
          ({!Client_sweep}), was given; ["all"] never implies it *)
}

(** Resolve [ccsim exp] ids before anything runs: an empty list or any
    unknown id is an [Error] naming it, even when ["all"] is given too. *)
val resolve : string list -> (selection, string) result

(** Every experiment id with its description, one per line, ids padded to
    the longest; ["client-sweep"] last. *)
val pp_list : Format.formatter -> unit -> unit
