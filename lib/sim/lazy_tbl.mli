(** A hash table whose bucket array is allocated on its first insert.

    A simulated client owns seven tables (its cache index and its lock,
    certification and callback bookkeeping), and at thousands of clients
    nearly all of them are still waiting for their first server reply,
    holding nothing.  An eager table costs its full bucket array anyway.
    Here the [Hashtbl] is created at its initial size on the first
    [replace] and kept, reset in place, after that.  Reads, folds,
    removes and resets of a table that was never filled are no-ops, and
    an unfilled table costs three words.

    Iteration order is exactly that of a [Hashtbl.t] of the same initial
    size: a fresh [Hashtbl.create n] has the same bucket count and seed
    as a table after [Hashtbl.reset], so the same operations from either
    state visit keys in the same order.  (Under [Hashtbl.randomize] every
    fresh table draws its own seed, and no order is reproducible; the
    simulator never calls it.) *)

type ('k, 'v) t

(** [create n] is an empty table that will allocate [Hashtbl.create n]
    on its first insert. *)
val create : int -> ('k, 'v) t

val replace : ('k, 'v) t -> 'k -> 'v -> unit
val find_opt : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool
val remove : ('k, 'v) t -> 'k -> unit
val length : ('k, 'v) t -> int
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

(** Empty the table, shrinking it back to its initial size
    ([Hashtbl.reset]); the table stays allocated. *)
val reset : ('k, 'v) t -> unit
