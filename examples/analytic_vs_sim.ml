(* Analytic cross-check: exact Mean Value Analysis vs the simulator.

   For a read-only workload there is no lock contention, so the simulated
   system is (approximately) a product-form closed queueing network and
   MVA should predict it well.  As the write probability rises, the gap
   between prediction and simulation grows — and that gap *is* the cost of
   data contention (lock waits, deadlocks, restarts), which queueing theory
   cannot see.  A nice way to separate resource contention from data
   contention in any measurement.

   Run with:  dune exec examples/analytic_vs_sim.exe *)

let () =
  let xp pw = Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:0.0 () in
  Format.printf
    "MVA prediction vs simulation (2PL, Loc=0, Table 5 server, 20 clients)@.@.";
  Format.printf "%8s %14s %14s %14s %14s %18s@." "pw" "mva tput" "sim tput"
    "mva resp(s)" "sim resp(s)" "data-contention gap";
  List.iter
    (fun pw ->
      let cfg = Core.Sys_params.table5 ~n_clients:20 () in
      let sim =
        Shard.Shard_sim.run
          (Core.Simulator.default_spec ~seed:7 ~warmup_commits:200
             ~measured_commits:1200 ~cfg ~xact_params:(xp pw)
             (Core.Proto.Two_phase Core.Proto.Inter))
      in
      let inputs =
        Core.Mva.demands_2pl cfg (xp pw) ~client_hit:0.05 ~buffer_hit:0.2
      in
      let p = Core.Mva.solve inputs in
      Format.printf "%8.2f %14.2f %14.2f %14.3f %14.3f %17.0f%%@." pw
        p.Core.Mva.throughput sim.Core.Simulator.throughput
        p.Core.Mva.response sim.Core.Simulator.mean_response
        (100.0
        *. (sim.Core.Simulator.mean_response -. p.Core.Mva.response)
        /. p.Core.Mva.response))
    [ 0.0; 0.2; 0.5 ];
  Format.printf
    "@.Throughput agrees within a few percent.  The response residual is@.\
     what the product-form model cannot see: deterministic (non-@.\
     exponential) service at the disks and CPUs, plus lock waiting - run@.\
     a higher-contention workload (more clients, a hotter database) and@.\
     watch the gap open up.@."
