(* Protocol trace: watch the callback-locking protocol run, message by
   message, on a tiny two-client system.

   Shows fetches, lock waits and grants, callback requests and releases,
   commits, aborts, and update notifications with their simulated
   timestamps — the fastest way to understand (or debug) an algorithm.

   The trace comes from the typed recorder ([spec.obs] with [trace] on):
   the simulator installs a per-domain buffer, the run fills it, and the
   entries come back inside [result.obs] — the same machinery `ccsim
   trace` uses, and it works identically under [Sim.Pool] workers.

   Run with:
     dune exec examples/protocol_trace.exe
     dune exec examples/protocol_trace.exe -- no-wait-notify 120 *)

let algo_of_string = function
  | "2pl" -> Core.Proto.Two_phase Core.Proto.Inter
  | "cert" -> Core.Proto.Certification Core.Proto.Inter
  | "callback" -> Core.Proto.Callback
  | "no-wait" -> Core.Proto.No_wait { notify = None }
  | "no-wait-notify" -> Core.Proto.No_wait { notify = Some Core.Proto.Push }
  | s ->
      Printf.eprintf "unknown algorithm %S\n" s;
      exit 1

let () =
  let algo =
    if Array.length Sys.argv > 1 then algo_of_string Sys.argv.(1)
    else Core.Proto.Callback
  in
  let max_events =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 80
  in
  Format.printf "Protocol trace: %s, 2 clients, tiny hot database@.@."
    (Core.Proto.algorithm_name algo);
  let cfg = Core.Sys_params.table5 ~n_clients:2 () in
  let spec =
    {
      (Core.Simulator.default_spec ~seed:12 ~warmup_commits:0
         ~measured_commits:6 ~obs:Obs.Config.trace_only ~cfg
         ~xact_params:
           (Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.6 ())
         algo)
      with
      (* a small hot database so the two clients actually collide *)
      Core.Simulator.db_params = Db.Db_params.uniform ~n_classes:2 ~pages_per_class:12 ();
    }
  in
  let r = Shard.Shard_sim.run spec in
  let entries =
    match r.Core.Simulator.obs with
    | Some o -> (List.hd o.Obs.Run.reps).Obs.Run.trace
    | None -> [||]
  in
  let shown = min max_events (Array.length entries) in
  Array.iter
    (fun e ->
      Format.printf "%10.4fs  %s@." e.Obs.Recorder.time
        (Obs.Event.to_string e.Obs.Recorder.ev))
    (Array.sub entries 0 shown);
  Format.printf "@.(%d of %d events shown; %d transactions committed, %d \
                 aborted)@."
    shown (Array.length entries) r.Core.Simulator.commits
    r.Core.Simulator.aborts
