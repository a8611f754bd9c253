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

(** §4 experiment 1 (Table 4 parameters): throughput vs MPL, two-phase
    locking vs certification on the ACL centralized configuration. *)
val acl : runner -> output

(** §4 experiment 2 (Figures 5–7): intra- vs inter-transaction caching. *)
val fig5 : runner -> output

val fig6 : runner -> output
val fig7 : runner -> output

(** §5.1 short transactions (Figures 8–12). *)
val fig8 : runner -> output

val fig9 : runner -> output
val fig10 : runner -> output
val fig11 : runner -> output
val fig12 : runner -> output

(** §5.1 summary decision map (Figure 13). *)
val fig13 : runner -> output

(** §5.2 large transactions (Figures 14–15). *)
val fig14 : runner -> output

val fig15 : runner -> output

(** §5.3 fast server (Figures 16–17). *)
val fig16 : runner -> output

val fig17 : runner -> output

(** §5.4 fast server and no network delay (Figures 18–21). *)
val fig18 : runner -> output

val fig19 : runner -> output
val fig20 : runner -> output
val fig21 : runner -> output

(** §5.5 interactive transactions (Figure 22). *)
val fig22 : runner -> output

(** Extension (not in the paper): notification by invalidation instead of
    update propagation, compared on the fast-server/fast-network setup. *)
val notify_ablation : runner -> output

(** Ablations of the design decisions documented in DESIGN.md. *)
val ablate_stale : runner -> output

val ablate_grace : runner -> output
val ablate_restart : runner -> output

(** Extensions beyond the paper's experiments: the object-size/clustering
    dimension its §3.1 models but never exercises, and MPL admission
    control in the client/server setting. *)
val objsize_extension : runner -> output

val mpl_extension : runner -> output

(** Extension: update notification composed with two-phase locking. *)
val two_pl_notify_extension : runner -> output

(** Ablation of the §2.3 choice to retain only read locks. *)
val retain_writes_ablation : runner -> output

(** Extension: a weighted mix of transaction types (§3.2). *)
val mix_extension : runner -> output

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
