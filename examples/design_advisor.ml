(* Design advisor: operationalizes the paper's Section 6 conclusions.

   Describe your deployment (clients, server speed, network, workload shape)
   on the command line and the advisor simulates all five algorithms on it,
   then recommends one.

   Run with:
     dune exec examples/design_advisor.exe
     dune exec examples/design_advisor.exe -- 50 0.75 0.1 fast-net
     (arguments: [clients] [locality] [write-prob] [table5|fast-server|fast-net]
                 [interactive]) *)

let usage () =
  prerr_endline
    "usage: design_advisor [clients] [locality] [write-prob] \
     [table5|fast-server|fast-net] [interactive]";
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let clients = ref 30
  and locality = ref 0.5
  and pw = ref 0.2
  and platform = ref "table5"
  and interactive = ref false in
  (match args with
  | [] -> ()
  | c :: rest -> (
      (try clients := int_of_string c with _ -> usage ());
      match rest with
      | [] -> ()
      | l :: rest -> (
          (try locality := float_of_string l with _ -> usage ());
          match rest with
          | [] -> ()
          | p :: rest ->
              (try pw := float_of_string p with _ -> usage ());
              List.iter
                (function
                  | "interactive" -> interactive := true
                  | ("table5" | "fast-server" | "fast-net") as s -> platform := s
                  | _ -> usage ())
                rest)));
  let cfg =
    match !platform with
    | "fast-server" -> Core.Sys_params.fast_server ~n_clients:!clients ()
    | "fast-net" -> Core.Sys_params.fast_server_fast_net ~n_clients:!clients ()
    | _ -> Core.Sys_params.table5 ~n_clients:!clients ()
  in
  let workload =
    if !interactive then
      Db.Xact_params.interactive ~prob_write:!pw ~inter_xact_loc:!locality ()
    else Db.Xact_params.short_batch ~prob_write:!pw ~inter_xact_loc:!locality ()
  in
  Format.printf
    "Deployment: %d clients, %s platform, locality %.2f, write probability \
     %.2f, %s transactions@.@."
    !clients !platform !locality !pw
    (if !interactive then "interactive" else "batch");
  let candidates =
    Core.Proto.Certification Core.Proto.Inter :: Core.Proto.section5_algorithms
  in
  let results =
    List.map
      (fun algo ->
        let spec =
          Core.Simulator.default_spec ~seed:7 ~warmup_commits:200
            ~measured_commits:1200 ~cfg ~xact_params:workload algo
        in
        (algo, Shard.Shard_sim.run spec))
      candidates
  in
  Format.printf "%-16s %12s %12s %8s %14s@." "algorithm" "response(s)"
    "commits/s" "aborts" "server cpu";
  List.iter
    (fun (algo, r) ->
      Format.printf "%-16s %12.3f %12.2f %8d %13.0f%%@."
        (Core.Proto.algorithm_name algo)
        r.Core.Simulator.mean_response r.Core.Simulator.throughput
        r.Core.Simulator.aborts
        (100.0 *. r.Core.Simulator.server_cpu_util))
    results;
  let best =
    List.fold_left
      (fun (ba, br) (a, r) ->
        if r.Core.Simulator.mean_response < br.Core.Simulator.mean_response then
          (a, r)
        else (ba, br))
      (List.hd results) (List.tl results)
  in
  let name = Core.Proto.algorithm_name (fst best) in
  Format.printf "@.Recommendation: %s (mean response %.3f s)@." name
    (snd best).Core.Simulator.mean_response;
  Format.printf
    "Paper rule of thumb (section 6): callback locking when locality is \
     high@.or locality is medium with few updates; two-phase locking \
     otherwise;@.no-wait locking with notification when both the network \
     and server are fast.@."
