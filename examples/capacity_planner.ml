(* Capacity planner: how many client workstations can one server carry
   before mean transaction response time blows past an SLO?

   Sweeps the client count for a chosen algorithm and workload, reports the
   knee of the curve, and shows which resource saturates first — the
   paper's bottleneck-shifting story (sections 5.1, 5.3, 5.4) as a sizing
   tool.

   Run with:
     dune exec examples/capacity_planner.exe
     dune exec examples/capacity_planner.exe -- callback 1.5 *)

let algo_of_string = function
  | "2pl" -> Core.Proto.Two_phase Core.Proto.Inter
  | "cert" -> Core.Proto.Certification Core.Proto.Inter
  | "callback" -> Core.Proto.Callback
  | "no-wait" -> Core.Proto.No_wait { notify = None }
  | "no-wait-notify" -> Core.Proto.No_wait { notify = Some Core.Proto.Push }
  | s ->
      Printf.eprintf
        "unknown algorithm %S (2pl|cert|callback|no-wait|no-wait-notify)\n" s;
      exit 1

let () =
  let algo =
    if Array.length Sys.argv > 1 then algo_of_string Sys.argv.(1)
    else Core.Proto.Callback
  in
  let slo =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 2.0
  in
  let workload =
    Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 ()
  in
  Format.printf
    "Capacity plan for %s, SLO: mean response <= %.2f s (Table 5 server)@.@."
    (Core.Proto.algorithm_name algo)
    slo;
  Format.printf "%8s %12s %12s %10s %10s %10s %10s@." "clients" "response(s)"
    "commits/s" "cpu" "disk" "net" "within SLO";
  let counts = [ 5; 10; 15; 20; 25; 30; 40; 50; 60 ] in
  let best = ref None in
  List.iter
    (fun n ->
      let cfg = Core.Sys_params.table5 ~n_clients:n () in
      let spec =
        Core.Simulator.default_spec ~seed:11 ~warmup_commits:150
          ~measured_commits:900 ~cfg ~xact_params:workload algo
      in
      let r = Shard.Shard_sim.run spec in
      let ok = r.Core.Simulator.mean_response <= slo in
      if ok then best := Some (n, r);
      Format.printf "%8d %12.3f %12.2f %9.0f%% %9.0f%% %9.0f%% %10s@." n
        r.Core.Simulator.mean_response r.Core.Simulator.throughput
        (100.0 *. r.Core.Simulator.server_cpu_util)
        (100.0 *. r.Core.Simulator.disk_util)
        (100.0 *. r.Core.Simulator.net_util)
        (if ok then "yes" else "no"))
    counts;
  (match !best with
  | Some (n, r) ->
      Format.printf
        "@.Verdict: up to ~%d clients fit the SLO; at that point the hottest \
         resource is the %s.@."
        n
        (let cpu = r.Core.Simulator.server_cpu_util
         and disk = r.Core.Simulator.disk_util
         and net = r.Core.Simulator.net_util in
         if cpu >= disk && cpu >= net then "server CPU"
         else if disk >= net then "data disks"
         else "network")
  | None -> Format.printf "@.Verdict: no tested client count meets the SLO.@.")
