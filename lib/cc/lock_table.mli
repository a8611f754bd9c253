(** Server lock manager (paper §3.3.4).

    Page-granularity locks in shared (S) and exclusive (X) modes with
    strict-FCFS wait queues and priority lock upgrades.  Because each
    client runs at most one transaction at a time (§2), a lock owner is a
    client id; callback locking's retained locks are simply locks whose
    owner currently has no active transaction.

    The table is a pure data structure: a blocked request registers a
    [wake] callback that the table invokes when the lock is granted.  The
    server passes each transaction's one wake closure, which ends that
    transaction's lock wait and resumes its handler if it has suspended. *)

type mode = S | X

val mode_to_string : mode -> string

(** Lock owners are client ids. *)
type owner = int

type t

val create : unit -> t

type outcome =
  | Granted  (** lock held on return *)
  | Blocked of owner list
      (** queued; the list is everyone the request now waits for (holders
          plus earlier incompatible waiters) — the waits-for edges *)

(** [request t ~page owner mode ~wake] tries to acquire.  Re-requesting a
    mode already held (or requesting S while holding X) is granted
    immediately.  Holding S and requesting X is an {e upgrade}: granted
    immediately if [owner] is the sole holder, otherwise queued ahead of
    ordinary waiters.  When a queued request is eventually granted, [wake]
    is called (once). *)
val request : t -> page:int -> owner -> mode -> wake:(unit -> unit) -> outcome

(** [release t ~page owner] drops the lock and grants whatever the FCFS
    queue now allows.  No-op if not held. *)
val release : t -> page:int -> owner -> unit

(** Release every lock held by [owner]; returns the pages released. *)
val release_all : t -> owner -> int list

(** [cancel_wait t ~page owner] withdraws a queued request (the waiter was
    aborted); grants any requests the departure unblocks. *)
val cancel_wait : t -> page:int -> owner -> unit

(** Withdraw all queued requests by [owner]. *)
val cancel_all_waits : t -> owner -> unit

(** [downgrade t ~page owner] converts a held X lock to S and grants
    newly compatible waiters.  No-op unless X is held. *)
val downgrade : t -> page:int -> owner -> unit

(** Mode currently held by [owner] on [page], if any. *)
val held : t -> page:int -> owner -> mode option

val holders : t -> page:int -> (owner * mode) list

(** Queued requests in FCFS order. *)
val waiting : t -> page:int -> (owner * mode) list

(** Pages on which [owner] holds a lock. *)
val pages_held_by : t -> owner -> int list

(** Does [owner] hold any lock?  O(1) — unlike [pages_held_by <> []],
    which materialises the page list. *)
val holds_any : t -> owner -> bool

(** Owners with at least one queued request, in no particular order.
    O(waiting owners): reads the per-owner wait index, not the pages. *)
val waiting_owners : t -> owner list

(** Pages on which [owner] has a queued request, in no particular order;
    [[]] if none.  O(its own waits). *)
val waits_of : t -> owner -> int list

(** [blockers t ~page owner] recomputes who a queued [owner] waits for
    right now: current holders incompatible with its request plus earlier
    incompatible waiters.  Empty if [owner] is not queued on [page]. *)
val blockers : t -> page:int -> owner -> owner list

(** Total locks currently held.  O(1): maintained incrementally, so the
    observability sampler can probe it every tick at any population. *)
val locks_held : t -> int

(** Total queued requests across all pages.  O(1), same contract as
    {!locks_held}. *)
val waiting_count : t -> int

(** Check internal invariants (S* xor X per page, no granted waiter);
    raises [Failure] on violation.  Used by tests. *)
val check_invariants : t -> unit
