(** Waits-for graph and cycle (deadlock) detection.

    The simulator rebuilds the graph from the lock table (plus any
    protocol-specific edges, e.g. callback waits) each time a request
    blocks, then searches for a cycle through the new waiter.  Rebuilding
    avoids the incremental-maintenance bugs that plague edge-by-edge
    updates and is cheap at simulation scale. *)

type t

val create : unit -> t

(** [add_edge t a b] records that [a] waits for [b].  Self-edges are
    ignored; duplicates are fine. *)
val add_edge : t -> int -> int -> unit

(** Successors of a node (whom it waits for). *)
val succ : t -> int -> int list

(** [find_cycle_from t start] is a cycle reachable from — and containing —
    [start], as the list of nodes on the cycle ([start] first), or [None].
    Only cycles through [start] matter: older waits were checked when they
    were created. *)
val find_cycle_from : t -> int -> int list option

(** [add_lock_table g table] adds [table]'s wait edges to [g] — unioning
    several shards' lock tables into one global graph, so cycles that
    span shards are found by the same search. *)
val add_lock_table : t -> Lock_table.t -> unit

(** Youngest victim: of the cycle nodes, the one with the largest
    [start_time] (ties by larger id).  [start_time] maps an owner to when
    its current transaction began. *)
val pick_victim : start_time:(int -> float) -> int list -> int
