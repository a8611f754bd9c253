(** Process-oriented discrete-event simulation engine.

    This is the substrate the paper built with CSIM: sequential processes
    that advance a shared simulated clock by holding for amounts of time,
    blocking on resources, and exchanging messages.  Processes are ordinary
    OCaml functions run under an effect handler; [hold] and [suspend] are
    the only two primitive effects, and everything else (mailboxes,
    facilities) is built on top of them.

    The simulation is single-threaded and deterministic: events fire in
    (time, seq) order, where seq is the scheduling order, so events
    scheduled at equal times fire first-in first-out.

    Pending events wait in one of two lanes.  Events at exactly the
    current time — every resume, every spawn at now, every zero-length
    hold — go to a FIFO ring and cost O(1).  Later events go to a binary
    min-heap on (time, seq) and cost O(log pending).  A heap event due now
    was scheduled before the clock reached now, so it precedes every ring
    entry: [run] takes the heap's top while it is due now and the ring's
    head otherwise, which is exactly (time, seq) order.  [run] allocates
    nothing per event beyond the boxed clock when time advances, and the
    heap's sifting moves only unboxed times, seqs and slot numbers. *)

type t

(** [create ()] is a fresh engine with clock at time [0.0]. *)
val create : unit -> t

(** Current simulated time. *)
val now : t -> float

(** Total number of events executed so far (diagnostics). *)
val events_executed : t -> int

(** Number of processes spawned so far (diagnostics). *)
val processes_spawned : t -> int

(** Processes started and not yet finished (a spawn for a later time is
    only a pending event until then). *)
val live_processes : t -> int

(** {1 Profiling}

    The engine always keeps its cheap global counters (events, spawns,
    holds, wakes, pending-event and live-process high-water marks).
    {!enable_profiling} additionally attributes every executed event to
    the process that scheduled it — by the [?name] given at {!spawn};
    unnamed processes inherit the name of the process whose execution
    spawned them — which is how the simulator's hot paths are located
    before optimizing them.  Profiling never changes scheduling order; it
    only fills a counter table. *)

type process_profile = {
  pp_name : string;
  pp_runs : int;  (** events executed on behalf of this process name *)
  pp_holds : int;
  pp_hold_time : float;  (** total simulated seconds held *)
}

type profile = {
  pr_events : int;
  pr_spawned : int;  (** {!spawn} calls, served mailbox consumers included *)
  pr_holds : int;  (** {!hold} calls: a live process sleeping in place *)
  pr_wakes : int;  (** suspend-resume completions *)
  pr_heap_hwm : int;
      (** pending-event high-water mark: the most events ever waiting at
          once, in the heap and the ring together *)
  pr_live_hwm : int;  (** the most {!live_processes} at any instant *)
  pr_per_process : process_profile list;
      (** sorted by [pp_runs] descending then name; empty unless
          {!enable_profiling} was called before the run *)
}

(** Turn on per-process attribution.  Call it before anything is
    scheduled: owners are recorded only from then on, so it raises
    [Invalid_argument] when events are already pending. *)
val enable_profiling : t -> unit

val profile : t -> profile

(** [spawn t ?at ?name body] creates a process executing [body] starting at
    time [at] (default: now).  Exceptions escaping [body] abort the whole
    simulation run: they propagate out of {!run}.  Raises
    [Invalid_argument] as {!schedule} does for a bad [at]. *)
val spawn : t -> ?at:float -> ?name:string -> (unit -> unit) -> unit

(** [schedule t ~at fn] runs the plain callback [fn] at time [at].  The
    callback must not perform process effects; use {!spawn} for that.
    Raises [Invalid_argument] when [at] is before now or NaN. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [resumer t fn] is {!suspend}'s resume for a plain callback: calling
    it schedules [fn] at the then-current time, in the slot a resumed
    process would take.  Under profiling the event is attributed to the
    process that made the resumer.  {!Facility.submit} queues one when no
    unit is free. *)
val resumer : t -> (unit -> unit) -> unit -> unit

(** [run t ?until ()] executes events in time order until the event queue
    drains, [stop] is called, or the clock would pass [until] (in which case
    the clock is left at [until] and remaining events stay queued).
    Returns the time at which execution stopped. *)
val run : t -> ?until:float -> unit -> float

(** Request that [run] return after the current event completes. *)
val stop : t -> unit

(** {1 Process effects}

    These may only be called from inside a process body spawned with
    {!spawn} (they perform effects handled by the engine). *)

(** Advance this process's local view of time by [dt] simulated seconds.
    [dt] must be non-negative and not NaN; otherwise [Invalid_argument]
    is raised in the process and propagates out of {!run}. *)
val hold : float -> unit

(** [suspend register] blocks the calling process.  [register] is called
    immediately with a [resume] function; stash it somewhere and call it
    (at most once) to reschedule the process at the then-current simulated
    time.  Calling [resume] twice raises [Invalid_argument]. *)
val suspend : ((unit -> unit) -> unit) -> unit

(** Terminate the calling process immediately. *)
val exit_process : unit -> 'a
