(** FCFS facilities — CSIM-style queueing resources.

    A facility has [capacity] identical service units.  A process acquires
    a unit with {!request} (blocking FCFS if all units are busy), holds it
    for its service time, and gives it back with {!release}.  The common
    pattern is wrapped by {!use}, and by {!submit} for callers that are
    not processes.

    Facilities keep the queueing statistics the paper reports:
    utilization, mean queue length, and throughput. *)

type t

(** [create eng ~name ?capacity ()] is an idle facility ([capacity]
    defaults to 1). *)
val create : Engine.t -> name:string -> ?capacity:int -> unit -> t

val name : t -> string
val capacity : t -> int

(** Acquire one unit, blocking FCFS if none is free. *)
val request : t -> unit

(** Return one unit; the longest-waiting request (a blocked process or a
    queued {!submit}), if any, inherits it without the unit ever appearing
    free. *)
val release : t -> unit

(** [use f dt] = request, hold [dt], release — one complete service. *)
val use : t -> float -> unit

(** [submit f ~service k] is {!use} for a plain callback: it occupies one
    unit for [service] seconds in the same FCFS queue as {!use}, then
    runs [k] as a plain event (so [k] must not block).  It schedules the
    events {!use} would, in the same (time, seq) slots: the completion
    at start + [service], and, when the request had to queue, a start
    event at the instant a unit passes to it.  Raises [Invalid_argument]
    when [service] is negative or NaN. *)
val submit : t -> service:float -> (unit -> unit) -> unit

(** {1 Statistics}

    All statistics cover the window since [create] or the last
    {!reset_stats}. *)

(** Fraction of total unit-time spent busy, in [0, 1]. *)
val utilization : t -> float

(** Time-average number of requests waiting (not in service). *)
val mean_queue_length : t -> float

(** Longest queue observed in the window (convoy high-water mark). *)
val max_queue_length : t -> int

(** Cumulative busy unit-seconds in the window, accounted up to now.
    Successive deltas divided by [interval * capacity] give per-interval
    utilization — what the observability sampler records. *)
val busy_time : t -> float

(** Completed services. *)
val completions : t -> int

(** Total service time delivered across all completions. *)
val total_service_time : t -> float

(** Forget history and start a fresh measurement window now. *)
val reset_stats : t -> unit
