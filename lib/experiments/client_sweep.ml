(* Population-scalability sweep: run the same fixed-contention workload at
   growing client populations and report how fast the simulator itself
   ran — engine events per wall-clock second, the event-heap high-water
   mark and the live heap per client — rather than any paper metric.  The
   commit target is fixed per cell, and the server's MPL bounds concurrent
   transactions, so the simulated work per cell is roughly constant: any
   super-linear growth in wall-clock is a per-client cost hiding in a hot
   path (the bug class this sweep exists to catch).

   Cells run sequentially and are never cached: each one is timed around
   its own [Shard_sim.run], so a pool worker co-running another cell can
   not inflate its wall-clock. *)

type cell = {
  sw_clients : int;
  sw_algo : string;
  sw_commits : int;
  sw_target : int;
  sw_events : int;  (* engine events executed, warmup included *)
  sw_wall_s : float;
  sw_heap_hwm : int;  (* event-heap high-water mark *)
  sw_live_words_per_client : int;
  sw_stop : Core.Simulator.stop;
}

let events_per_sec c =
  if c.sw_wall_s <= 0.0 then 0.0
  else float_of_int c.sw_events /. c.sw_wall_s

let populations ~quick =
  if quick then [ 500; 1_000; 2_000 ]
  else [ 1_000; 3_000; 10_000; 30_000; 100_000 ]

(* One pessimistic and one optimistic-flavoured protocol: two-phase
   locking drives the lock table's wait queues, callback locking drives
   retained-lock state and callback traffic. *)
let algos = [ Core.Proto.Two_phase Core.Proto.Inter; Core.Proto.Callback ]

let commit_target ~quick = if quick then (50, 150) else (100, 400)

let cell_spec ~quick ~seed ~n_clients algo =
  let warmup_commits, measured_commits = commit_target ~quick in
  let cfg = Core.Sys_params.table5 ~n_clients () in
  let xp =
    Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ()
  in
  Core.Simulator.default_spec ~seed ~warmup_commits ~measured_commits
    ~obs:(Obs.Config.make ~profile:true ())
    ~cfg ~xact_params:xp algo

let heap_hwm (r : Core.Simulator.result) =
  match r.Core.Simulator.obs with
  | Some { Obs.Run.reps = rep :: _ } -> (
      match rep.Obs.Run.profile with
      | Some p -> p.Sim.Engine.pr_heap_hwm
      | None -> 0)
  | _ -> 0

let run ?(progress = fun _ -> ()) ~quick ~seed () =
  List.concat_map
    (fun n_clients ->
      List.map
        (fun algo ->
          let spec = cell_spec ~quick ~seed ~n_clients algo in
          (* the census runs inside [run], while the simulation is still
             reachable; its full collection is taken out of the wall *)
          let live_words = ref 0 and census_s = ref 0.0 in
          let inspect _ _ =
            let t0 = Unix.gettimeofday () in
            Gc.full_major ();
            live_words := (Gc.stat ()).Gc.live_words;
            census_s := Unix.gettimeofday () -. t0
          in
          let t0 = Unix.gettimeofday () in
          let r = Shard.Shard_sim.run ~inspect spec in
          let wall = Unix.gettimeofday () -. t0 -. !census_s in
          let c =
            {
              sw_clients = n_clients;
              sw_algo = Core.Proto.algorithm_name algo;
              sw_commits = r.Core.Simulator.commits;
              sw_target = spec.Core.Simulator.measured_commits;
              sw_events = r.Core.Simulator.events;
              sw_wall_s = wall;
              sw_heap_hwm = heap_hwm r;
              sw_live_words_per_client = !live_words / n_clients;
              sw_stop = r.Core.Simulator.stop;
            }
          in
          progress c;
          c)
        algos)
    (populations ~quick)

let print fmt cells =
  Format.fprintf fmt
    "@.== client-sweep: simulator scalability vs client population ==@.";
  Format.fprintf fmt
    "   host-performance benchmark (not a paper figure): fixed commit \
     target per cell,@.   so flat events/s across rows means no per-client \
     cost in the per-event hot paths@.";
  Format.fprintf fmt "   %-8s %-14s %12s %9s %12s %10s %12s %8s@." "clients"
    "algorithm" "events" "wall_s" "events/s" "heap_hwm" "words/client"
    "commits";
  List.iter
    (fun c ->
      if c.sw_stop <> Core.Simulator.Target_reached then
        Format.fprintf fmt "   %-8d %-14s short %d/%d@." c.sw_clients c.sw_algo
          c.sw_commits c.sw_target
      else
        Format.fprintf fmt "   %-8d %-14s %12d %9.2f %12.0f %10d %12d %8d@."
          c.sw_clients c.sw_algo c.sw_events c.sw_wall_s (events_per_sec c)
          c.sw_heap_hwm c.sw_live_words_per_client c.sw_commits)
    cells

let csv cells =
  "clients,algorithm,events,wall_s,events_per_sec,heap_hwm,\
   live_words_per_client,commits,stop"
  :: List.map
       (fun c ->
         Printf.sprintf "%d,%s,%d,%.4f,%.1f,%d,%d,%d,%s" c.sw_clients
           (Report.csv_field c.sw_algo)
           c.sw_events c.sw_wall_s (events_per_sec c) c.sw_heap_hwm
           c.sw_live_words_per_client c.sw_commits
           (Core.Simulator.stop_label c.sw_stop))
       cells
