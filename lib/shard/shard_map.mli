(** Deterministic page-to-shard directory.

    The database is partitioned by {e contiguous class ranges}: shard [k]
    of [N] owns classes [k*C/N, (k+1)*C/N).  Because an object never
    spans a class boundary (see {!Db.Database}), every object access —
    fetch, certification read, callback — is single-shard by
    construction; only transaction {e commits} can span shards.  The map
    is a pure function of the database shape and [n_shards], so the
    client-side router and every shard server compute identical
    directories with no coordination. *)

type t

val create : Db.Database.t -> n_shards:int -> t
val n_shards : t -> int
val shard_of_page : t -> int -> int

(** Group [pages] by shard: [(shard, pages-in-original-order)] pairs,
    ascending by shard — deterministic regardless of hash-table layout. *)
val partition_pages : t -> int list -> (int * int list) list
