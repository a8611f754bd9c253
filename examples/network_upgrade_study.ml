(* Network/server upgrade study: the paper's sections 5.3-5.4 as a
   what-if tool.

   Fixes one workload and asks: what do a 10x faster server CPU and an
   infinitely fast network each buy me, and does the best consistency
   algorithm change?  (The paper's answer: bottleneck shifts CPU -> network
   -> disks, and once messages are cheap, no-wait locking with notification
   and callback locking take over.)

   Run with:  dune exec examples/network_upgrade_study.exe *)

let platforms =
  [
    ("1990 baseline (2 MIPS, 2 ms net)", fun n -> Core.Sys_params.table5 ~n_clients:n ());
    ("fast server (20 MIPS)", fun n -> Core.Sys_params.fast_server ~n_clients:n ());
    ( "fast server + fast network",
      fun n -> Core.Sys_params.fast_server_fast_net ~n_clients:n () );
  ]

let () =
  let n_clients = 50 in
  let workload =
    Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.25 ()
  in
  Format.printf
    "Upgrade study: %d clients, short transactions, locality 0.25, write \
     probability 0.5@."
    n_clients;
  List.iter
    (fun (label, make_cfg) ->
      Format.printf "@.--- %s ---@." label;
      Format.printf "%-16s %12s %12s %8s %8s %8s@." "algorithm" "response(s)"
        "commits/s" "cpu" "disk" "net";
      let results =
        List.map
          (fun algo ->
            let cfg = make_cfg n_clients in
            let spec =
              Core.Simulator.default_spec ~seed:5 ~warmup_commits:150
                ~measured_commits:900 ~cfg ~xact_params:workload algo
            in
            (algo, Shard.Shard_sim.run spec))
          Core.Proto.section5_algorithms
      in
      List.iter
        (fun (algo, r) ->
          Format.printf "%-16s %12.3f %12.2f %7.0f%% %7.0f%% %7.0f%%@."
            (Core.Proto.algorithm_name algo)
            r.Core.Simulator.mean_response r.Core.Simulator.throughput
            (100.0 *. r.Core.Simulator.server_cpu_util)
            (100.0 *. r.Core.Simulator.disk_util)
            (100.0 *. r.Core.Simulator.net_util))
        results;
      let best =
        List.fold_left
          (fun (ba, br) (a, r) ->
            if r.Core.Simulator.mean_response < br.Core.Simulator.mean_response
            then (a, r)
            else (ba, br))
          (List.hd results) (List.tl results)
      in
      Format.printf "best: %s@." (Core.Proto.algorithm_name (fst best)))
    platforms
