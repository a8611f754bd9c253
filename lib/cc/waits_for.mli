(** Waits-for graph and cycle (deadlock) detection.

    The simulator rebuilds the graph from the lock tables each time a 2PL
    request blocks, then searches for a cycle through the new waiter;
    callback locking's periodic detector rebuilds it at each sweep.
    Rebuilding avoids the incremental-maintenance bugs that plague
    edge-by-edge updates, and it is cheap because it reads only the
    waits, never the held locks. *)

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
    span shards are found by the same search.  For each waiting owner and
    each page it waits on, it adds an edge to each of the request's
    {!Lock_table.blockers}.  It reads the table's per-owner wait index,
    so it costs O(waiting owners × their blockers), however many locks
    are held.  When each owner waits on at most one page of [table] (one
    queued request per transaction per shard), an owner's successor list
    depends only on that request's blockers, not on the order in which
    owners are visited; that list's order decides which cycle
    {!find_cycle_from} reports. *)
val add_lock_table : t -> Lock_table.t -> unit

(** Youngest victim: of the cycle nodes, the one with the largest
    [start_time] (ties by larger id).  [start_time] maps an owner to when
    its current transaction began. *)
val pick_victim : start_time:(int -> float) -> int list -> int
