(** LRU page pool with pin counts, dirty bits and versions.

    The same structure backs the server buffer pool (§3.3.4) and each
    client cache (§3.3.3): a fixed number of page frames, least-recently-
    used replacement, and pinning to keep pages of in-flight operations
    resident.  Pure data structure — the caller performs whatever I/O or
    messaging the returned eviction victim requires.

    Memory is proportional to what the pool holds, not to its capacity:
    the page index is allocated at [2 * capacity] buckets on the first
    [insert] (most of a large client population has cached nothing yet)
    and kept, reset in place, by [clear]. *)

type t

(** An evicted page and whether it was dirty when evicted. *)
type victim = { page : int; dirty : bool }

(** [create ~capacity] is an empty pool of [capacity] frames
    (raises [Invalid_argument] if non-positive). *)
val create : capacity:int -> t

(** [set_residency_hook t ~on_add ~on_drop] registers callbacks fired when
    a page becomes resident ([insert] of a new page) or stops being
    resident ([insert] eviction, [remove], [clear]).  Lets an external
    index mirror the pool's membership without ever scanning it; replaces
    any previously registered hook. *)
val set_residency_hook : t -> on_add:(int -> unit) -> on_drop:(int -> unit) -> unit

val capacity : t -> int
val size : t -> int
val mem : t -> int -> bool

(** [touch t page] moves [page] to most-recently-used; [false] on miss. *)
val touch : t -> int -> bool

(** [insert t page ~dirty] makes [page] resident and most-recently-used.
    If it was already resident its dirty bit is OR-ed with [dirty].  If a
    frame had to be freed, the evicted victim is returned.  Raises
    [Failure] if every frame is pinned (a configuration error: the pool is
    smaller than the working set it must pin). *)
val insert : t -> int -> dirty:bool -> victim option

(** The version recorded for a resident page by [set_version]; [None] on
    a miss or before the first [set_version].  A page that leaves the
    pool takes its version with it: inserted again, it has none. *)
val version : t -> int -> int option

(** [set_version t page v] records [v] (non-negative) for a resident
    page; no-op on a miss. *)
val set_version : t -> int -> int -> unit

(** [remove t page] drops the page regardless of pins; no-op on miss.
    Returns whether the page was dirty. *)
val remove : t -> int -> bool

(** Pin / unpin a resident page.  Pinned pages are never evicted.
    No-ops on miss; [unpin] below zero raises. *)
val pin : t -> int -> unit

val unpin : t -> int -> unit
val pin_count : t -> int -> int

(** Unpin every page (end-of-transaction convenience).  Touches only the
    frames pinned since the last [unpin_all] or [clear]: its cost is the
    number of 0-to-1 pin transitions since then, not the pool's size. *)
val unpin_all : t -> unit

(** Resident pages, most recently used first. *)
val pages_mru : t -> int list

(** Drop everything (intra-transaction caching invalidates the whole cache
    on transaction boundaries). *)
val clear : t -> unit
