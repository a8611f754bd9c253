(* Quickstart: simulate a small client/server object store under two cache
   consistency algorithms and compare them.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* The system: the paper's Table 5 hardware with 20 client workstations. *)
  let cfg = Core.Sys_params.table5 ~n_clients:20 () in

  (* The workload: short batch transactions (4-12 object reads), 20 % of
     read atoms updated, half the reads hitting recently-used objects. *)
  let workload =
    Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 ()
  in

  (* Run each algorithm for 2000 committed transactions after a 300-commit
     warmup, and print the paper's headline metrics. *)
  let algorithms =
    [
      Core.Proto.Two_phase Core.Proto.Inter;
      Core.Proto.Callback;
      Core.Proto.No_wait { notify = None };
      Core.Proto.No_wait { notify = Some Core.Proto.Push };
    ]
  in
  Format.printf "%-16s %12s %12s %8s %8s %10s@." "algorithm" "response(s)"
    "commits/s" "aborts" "hit" "msgs/xact";
  List.iter
    (fun algo ->
      let spec =
        Core.Simulator.default_spec ~seed:2024 ~cfg ~xact_params:workload algo
      in
      let r = Shard.Shard_sim.run spec in
      Format.printf "%-16s %12.3f %12.2f %8d %8.2f %10.1f@."
        (Core.Proto.algorithm_name algo)
        r.Core.Simulator.mean_response r.Core.Simulator.throughput
        r.Core.Simulator.aborts r.Core.Simulator.hit_ratio
        r.Core.Simulator.msgs_per_commit)
    algorithms;
  Format.printf
    "@.With medium locality, callback locking's retained read locks save@.\
     server round-trips; under heavier write traffic two-phase locking@.\
     catches up because callbacks must be revoked (paper sections 5.1 and 6).@."
