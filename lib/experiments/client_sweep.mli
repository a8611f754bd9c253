(** Population-scalability sweep (`ccsim exp client-sweep`).

    Runs the Table 5 workload at growing client populations with a fixed
    commit target and MPL, timing the simulator itself: because the
    simulated work per cell is roughly constant, engine events per
    wall-clock second should stay flat as the population grows — any
    super-linear wall-clock growth exposes a per-client cost in a
    per-event hot path.  Reported per cell: engine events, wall-clock,
    events/sec, the event-heap high-water mark, and the live heap per
    client at the end of the run (the space analogues).

    Not a paper figure: excluded from [Suite.all] so `exp all` never pays
    for a 100k-client run implicitly. *)

type cell = {
  sw_clients : int;
  sw_algo : string;
  sw_commits : int;
  sw_target : int;  (** the measured commit target *)
  sw_events : int;  (** engine events executed, warmup included *)
  sw_wall_s : float;
  sw_heap_hwm : int;  (** event-heap high-water mark *)
  sw_live_words_per_client : int;
      (** live major-heap words after a full collection at the end of
          the run, whole simulation still reachable, over the
          population; the collection is not counted in [sw_wall_s] *)
  sw_stop : Core.Simulator.stop;  (** why the run ended *)
}

(** Populations swept: [quick] is the seconds-scale CI set, full reaches
    100k clients. *)
val populations : quick:bool -> int list

(** Cells run sequentially (never pooled, never cached) so each cell's
    wall-clock is unpolluted; [progress] fires after each cell. *)
val run :
  ?progress:(cell -> unit) -> quick:bool -> seed:int -> unit -> cell list

(** One row per cell; a cell that stopped before its commit target
    prints ["short N/M"] in place of its numbers. *)
val print : Format.formatter -> cell list -> unit

(** RFC-4180 rows, header first.  The last column, [stop], is
    {!Core.Simulator.stop_label}: a short cell keeps its numbers here, so
    a reader of events/s must check that [stop] is [target]. *)
val csv : cell list -> string list
