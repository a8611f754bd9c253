module Simulator = Core.Simulator
module Server = Core.Server
module Client = Core.Client
module Metrics = Core.Metrics
module Sys_params = Core.Sys_params
module Proto = Core.Proto
module Comms = Core.Comms

let c2s_bytes (cfg : Sys_params.t) msg =
  Proto.c2s_bytes ~control:cfg.control_msg_bytes ~page_size:cfg.page_size msg

let s2c_bytes (cfg : Sys_params.t) msg =
  Proto.s2c_bytes ~control:cfg.control_msg_bytes ~page_size:cfg.page_size msg

(* A server attributes a message to the client of its transaction. *)
let xid_owner xid = if xid >= 0 then Proto.xid_client xid else -1

(* One client request on the wire to [server]; [dst_ep] is the server's
   shared trace endpoint. *)
let post_c2s net cfg ~client ~i ~server ~dst_ep ~parent ~retry msg =
  Comms.post net cfg ~src:(Client.port client) ~src_ep:(Obs.Causal.Client i)
    ~dst:(Server.port server) ~dst_ep ~parent ~retry ~xid:(Proto.c2s_xid msg)
    ~owner:(Proto.c2s_client msg) ~kind:(Proto.c2s_kind msg)
    ~bytes:(c2s_bytes cfg msg) (fun ctx -> Server.deliver server ~ctx msg)

(* The one topology assembly: one engine, one network, one metrics hub,
   one database — and [n_shards] servers, each owning its slice of the
   page space with its own lock table, buffer, version table, and WAL.
   Every link is wired here: clients and servers send through closures
   and know each other by id.  Only the client/server wiring depends on
   N.  At N = 1 each client sends straight to the server and the server
   writes straight into the client's inbox, so the run is the
   single-server simulator event for event.  At N > 1 one router per
   client splits traffic and coordinates 2PC, behind per-(client, shard)
   relay mailboxes. *)
let run_with_stats ?audit ?inspect (spec : Simulator.spec) =
  Sys_params.validate spec.cfg;
  Fault.Plan.validate spec.fault;
  let n_shards = spec.n_shards in
  if n_shards < 1 then invalid_arg "Shard_sim.run_with_stats: n_shards < 1";
  let sharded = n_shards > 1 in
  let cfg = spec.cfg in
  let n_clients = cfg.Sys_params.n_clients in
  let eng = Sim.Engine.create () in
  (* before assembly, whose spawns are the first attributed events *)
  if spec.obs.Obs.Config.profile then Sim.Engine.enable_profiling eng;
  let master = Sim.Rng.create spec.seed in
  let db = Db.Database.create spec.db_params in
  let map = Shard_map.create db ~n_shards in
  let metrics = Metrics.create eng in
  (* with [Fault.Plan.none] the network gets no injector and draws
     nothing: fault-free runs stay bit-identical to the pre-fault
     simulator *)
  let net =
    let faults =
      if Fault.Plan.active spec.fault then
        Some (Fault.Injector.create spec.fault)
      else None
    in
    Net.Network.create ?faults eng
      ~rng:(Sim.Rng.split master "network")
      cfg.Sys_params.net
  in
  let servers =
    Array.init n_shards (fun k ->
        (* a single server keeps the unsharded RNG stream and names *)
        let label, stream =
          if sharded then
            (Printf.sprintf "s%d-" k, Printf.sprintf "server-%d" k)
          else ("", "server")
        in
        Server.create ~fault:spec.fault ~label eng ~cfg ~db ~algo:spec.algo
          ~rng:(Sim.Rng.split master stream) ~metrics)
  in
  (* every recorded causal send keeps its endpoints: one value per shard *)
  let shard_ep = Array.init n_shards (fun k -> Obs.Causal.Shard k) in
  let clients = Array.make n_clients None in
  (* fleet-wide crashed-client count, maintained by the clients themselves
     so the sampler never scans the population *)
  let down_gauge = ref 0 in
  let commit_target = spec.warmup_commits + spec.measured_commits in
  let reset_all () =
    Metrics.reset metrics;
    Net.Network.reset_stats net;
    Array.iter Server.reset_stats servers;
    Array.iter (function Some c -> Client.reset_stats c | None -> ()) clients
  in
  let on_commit () =
    let n = Metrics.total_commits metrics in
    if n = spec.warmup_commits then reset_all ()
    else if n >= commit_target then Sim.Engine.stop eng
  in
  (* per-(client, shard) relay inboxes: each shard believes it talks to
     the client directly, but the router sits in between, consuming 2PC
     traffic and forwarding the rest *)
  let relay =
    if sharded then Array.make_matrix n_clients n_shards None else [||]
  in
  (* per-shard routed-message counters, names precomputed once so the
     hot path is a hash lookup + integer add (and nothing at all when no
     registry is installed) *)
  let shard_msg_name =
    Array.init n_shards (fun k ->
        Printf.sprintf "ccsim_shard_msgs_total{shard=\"%d\"}" k)
  in
  let server0 = servers.(0) in
  for i = 0 to n_clients - 1 do
    let crng = Sim.Rng.split master (Printf.sprintf "client-%d" i) in
    let workload =
      let rng = Sim.Rng.split crng "workload" in
      match spec.mix with
      | Some mix -> Db.Workload.create_mix db mix ~rng
      | None -> Db.Workload.create db spec.xact_params ~rng
    in
    let client = ref None in
    let router =
      if not sharded then None
      else begin
        let send s ~parent ~retry msg =
          let c = Option.get !client in
          if Obs.Sink.metrics_on () then Obs.Sink.incr shard_msg_name.(s) 1;
          post_c2s net cfg ~client:c ~i ~server:servers.(s)
            ~dst_ep:shard_ep.(s) ~parent ~retry msg
        in
        let amnesia =
          let p = spec.fault.Fault.Plan.coord_crash_prob in
          let rng = Fault.Injector.coord_stream spec.fault i in
          fun () -> p > 0.0 && Sim.Rng.bernoulli rng p
        in
        Some
          (Router.create ~map ~client_id:i ~metrics ~amnesia ~send
             ~now:(fun () -> Sim.Engine.now eng)
             ~deliver_client:(fun ctx msg ->
               Sim.Mailbox.send (Client.inbox (Option.get !client)) (ctx, msg)))
      end
    in
    let to_server =
      match router with
      | Some r -> Router.route r
      | None ->
          (* a direct closure, not the sharded [send] partially
             applied: the client population multiplies every word here *)
          fun ~parent ~retry msg ->
            post_c2s net cfg ~client:(Option.get !client) ~i ~server:server0
              ~dst_ep:shard_ep.(0) ~parent ~retry msg
    in
    let c =
      Client.create eng ?audit ~fault:spec.fault ~down_gauge ~id:i ~cfg
        ~algo:spec.algo ~workload ~rng:(Sim.Rng.split crng "client") ~metrics
        ~to_server ~on_commit
    in
    client := Some c;
    clients.(i) <- Some c;
    Option.iter
      (fun router ->
        for s = 0 to n_shards - 1 do
          let mb = Sim.Mailbox.create eng in
          relay.(i).(s) <- Some mb;
          Sim.Mailbox.serve mb
            ~name:(Printf.sprintf "relay-%d-%d" i s)
            (fun (ctx, msg) -> Router.on_s2c router ~shard:s ~ctx msg)
        done)
      router
  done;
  let client_of i =
    match clients.(i) with Some c -> c | None -> assert false
  in
  (* Each server's links.  A server reply lands in the client's inbox, or
     at N > 1 in the relay its router reads; a shard-to-shard message
     enters the peer's normal dispatch.  Peers switch a server into its
     sharded (2PC) mode, so a server alone gets none. *)
  let peers = if sharded then servers else [||] in
  Array.iteri
    (fun s srv ->
      let to_client cid ~parent ~xid ~retry msg =
        let c = client_of cid in
        let inbox =
          if sharded then Option.get relay.(cid).(s) else Client.inbox c
        in
        Comms.post net cfg ~src:(Server.port srv) ~src_ep:shard_ep.(s)
          ~dst:(Client.port c) ~dst_ep:(Obs.Causal.Client cid) ~parent ~retry
          ~xid ~owner:(xid_owner xid) ~kind:(Proto.s2c_kind msg)
          ~bytes:(s2c_bytes cfg msg)
          (fun node -> Sim.Mailbox.send inbox (node, msg))
      and to_shard k ~parent ~retry msg =
        let peer = servers.(k) and xid = Proto.c2s_xid msg in
        Comms.post net cfg ~src:(Server.port srv) ~src_ep:shard_ep.(s)
          ~dst:(Server.port peer) ~dst_ep:shard_ep.(k) ~parent ~retry ~xid
          ~owner:(xid_owner xid) ~kind:(Proto.c2s_kind msg)
          ~bytes:(c2s_bytes cfg msg)
          (fun node -> Server.deliver peer ~ctx:node msg)
      in
      Server.connect srv ~shard_id:s ~peers ~to_client ~to_shard)
    servers;
  (* one residency-hook dispatcher per client pool (a pool has a single
     hook slot): each cached page is indexed on the shard that owns it,
     and a server alone is called directly *)
  if Server.notifies server0 then
    for i = 0 to n_clients - 1 do
      let pool = Client.cache (client_of i) in
      if sharded then
        Storage.Lru_pool.set_residency_hook pool
          ~on_add:(fun page ->
            Server.residency_add servers.(Shard_map.shard_of_page map page) i
              page)
          ~on_drop:(fun page ->
            Server.residency_drop servers.(Shard_map.shard_of_page map page) i
              page)
      else
        Storage.Lru_pool.set_residency_hook pool
          ~on_add:(fun page -> Server.residency_add server0 i page)
          ~on_drop:(fun page -> Server.residency_drop server0 i page)
    done;
  (* shard 0's crash stream is the single-server stream *)
  Array.iteri
    (fun k srv ->
      Server.start ~crash_rng:(Fault.Injector.shard_stream spec.fault k) srv)
    servers;
  Array.iter (function Some c -> Client.start c | None -> ()) clients;
  (* Observability, all opt-in ([Obs.Config.off] installs nothing).  The
     sink goes into THIS domain's slot — which is the pool worker's slot
     when the run was dispatched by [Sim.Pool] — and the filled buffers
     return by value in [result.obs], so observation works at any [-j].
     Sampler sources only read statistics (no hold, no RNG), so sampled
     runs compute exactly the results of unsampled ones. *)
  let ocfg = spec.obs in
  let sink = Obs.Sink.of_config ocfg in
  Option.iter
    (fun r -> Obs.Metrics.set_gauge r "ccsim_shards" (float_of_int n_shards))
    sink.Obs.Sink.metrics;
  let series =
    if not ocfg.Obs.Config.series then None
    else begin
      let interval = ocfg.Obs.Config.sample_interval in
      (* Per-interval rate from a cumulative counter.  [Metrics.reset] at
         the warmup boundary rewinds the counters, so the first
         post-warmup delta can be negative: clamp to 0. *)
      let rate_of read =
        let last = ref (read ()) in
        fun () ->
          let v = read () in
          let d = v -. !last in
          last := v;
          Float.max 0.0 d
      in
      let all_disks =
        Array.concat (Array.to_list (Array.map Server.data_disks servers))
      in
      let cpu_busy =
        rate_of (fun () ->
            Array.fold_left
              (fun a srv ->
                a +. Sim.Facility.busy_time (Server.port srv).Proto.cpu)
              0.0 servers)
      in
      let cpu_capacity =
        Array.fold_left
          (fun a srv ->
            a + Sim.Facility.capacity (Server.port srv).Proto.cpu)
          0 servers
      in
      let disk_busy =
        rate_of (fun () ->
            Array.fold_left
              (fun a d -> a +. Storage.Disk.busy_time d)
              0.0 all_disks)
      in
      let net_busy = rate_of (fun () -> Net.Network.busy_time net) in
      let commit_rate =
        rate_of (fun () -> float_of_int (Metrics.total_commits metrics))
      in
      let abort_rate =
        rate_of (fun () -> float_of_int (Metrics.aborts metrics))
      in
      let sum_over f =
        float_of_int (Array.fold_left (fun a srv -> a + f srv) 0 servers)
      in
      let lock_count f () = sum_over (fun srv -> f (Server.locks srv)) in
      let sources =
        [
          ( "server_cpu_util",
            fun () ->
              Float.min 1.0
                (cpu_busy () /. (interval *. float_of_int cpu_capacity)) );
          ( "disk_util",
            fun () ->
              if Array.length all_disks = 0 then 0.0
              else
                Float.min 1.0
                  (disk_busy ()
                  /. (interval *. float_of_int (Array.length all_disks))) );
          ("net_util", fun () -> Float.min 1.0 (net_busy () /. interval));
          ("locks_held", lock_count Cc.Lock_table.locks_held);
          ("lock_waiters", lock_count Cc.Lock_table.waiting_count);
          ("active_xacts", fun () -> sum_over Server.active_count);
          ("ready_queue", fun () -> sum_over Server.ready_queue_length);
          ("commit_rate", fun () -> commit_rate () /. interval);
          ("abort_rate", fun () -> abort_rate () /. interval);
          ("clients_down", fun () -> float_of_int !down_gauge);
        ]
      in
      Some (Obs.Series.sample eng ~interval ~sources)
    end
  in
  let sim_time =
    let run_sim () = Sim.Engine.run eng ~until:spec.max_sim_time () in
    (* a run that observes nothing leaves the caller's sink installed *)
    if Obs.Sink.is_empty sink then run_sim () else Obs.Sink.with_ sink run_sim
  in
  let net_kinds = Net.Network.kind_stats net in
  (* Per-kind wire accounting and causal critical-chain shape land in the
     registry after the run: pure counter folds, no engine interaction. *)
  (match sink.Obs.Sink.metrics with
  | Some r ->
      List.iter
        (fun (kind, ks) ->
          let lbl name = Printf.sprintf "%s{kind=\"%s\"}" name kind in
          Obs.Metrics.incr r (lbl "ccsim_net_msgs_total")
            ks.Net.Network.ks_msgs;
          Obs.Metrics.incr r (lbl "ccsim_net_packets_total")
            ks.Net.Network.ks_pkts;
          Obs.Metrics.incr r (lbl "ccsim_net_bytes_total")
            ks.Net.Network.ks_bytes;
          if ks.Net.Network.ks_retx > 0 then
            Obs.Metrics.incr r
              (lbl "ccsim_net_retransmits_total")
              ks.Net.Network.ks_retx;
          if ks.Net.Network.ks_dups > 0 then
            Obs.Metrics.incr r
              (lbl "ccsim_net_duplicates_total")
              ks.Net.Network.ks_dups)
        net_kinds;
      Option.iter
        (fun b ->
          let tagged = Array.map (fun e -> (0, e)) (Obs.Causal.entries b) in
          Obs.Causal.register_chain_metrics r
            (Obs.Causal.analyze ~dropped:(Obs.Causal.dropped b) tagged))
        sink.Obs.Sink.causal
  | None -> ());
  (match inspect with
  | Some f -> f servers (Array.init n_clients client_of)
  | None -> ());
  let now = sim_time in
  let window = now -. Metrics.measure_start metrics in
  let commits = Metrics.commits metrics in
  let lookups = Metrics.lookups metrics in
  (* single pass over the client array: no intermediate list at 100k *)
  let client_cpu_util_mean =
    let sum = ref 0.0 and n = ref 0 in
    Array.iter
      (function
        | Some c ->
            sum := !sum +. Client.cpu_utilization c;
            incr n
        | None -> ())
      clients;
    if !n = 0 then 0.0 else !sum /. float_of_int !n
  in
  (* exact for one server: (0 + x) / 1 = x *)
  let favg_servers f =
    Array.fold_left (fun a srv -> a +. f srv) 0.0 servers
    /. float_of_int n_shards
  in
  (* messages posted of the given kinds, over the measurement window *)
  let kind_msgs kinds =
    List.fold_left
      (fun a k ->
        match List.assoc_opt k net_kinds with
        | Some ks -> a + ks.Net.Network.ks_msgs
        | None -> a)
      0 kinds
  in
  let obs_payload =
    if not (Obs.Config.enabled ocfg) then None
    else begin
      let disk_snap d =
        {
          Obs.Run.fac_name = Storage.Disk.name d;
          fac_capacity = 1;
          fac_utilization = Storage.Disk.utilization d;
          fac_mean_queue = Storage.Disk.mean_queue_length d;
          fac_max_queue = Storage.Disk.max_queue_length d;
          fac_busy_time = Storage.Disk.busy_time d;
          fac_completions = Storage.Disk.accesses d;
        }
      in
      let facilities =
        List.concat_map
          (fun srv ->
            Obs.Run.snapshot_facility (Server.port srv).Proto.cpu
            :: ((Array.to_list (Server.data_disks srv) |> List.map disk_snap)
               @ (match Server.log_disk srv with
                 | Some d -> [ disk_snap d ]
                 | None -> [])))
          (Array.to_list servers)
        @ [
            {
              Obs.Run.fac_name = "network";
              fac_capacity = 1;
              fac_utilization = Net.Network.utilization net;
              fac_mean_queue = Net.Network.mean_queue_length net;
              fac_max_queue = Net.Network.max_queue_length net;
              fac_busy_time = Net.Network.busy_time net;
              fac_completions = Net.Network.packets_sent net;
            };
          ]
      in
      let drain entries dropped = function
        | Some b -> (entries b, dropped b)
        | None -> ([||], 0)
      in
      let trace, trace_dropped =
        drain Obs.Recorder.entries Obs.Recorder.dropped sink.Obs.Sink.trace
      and spans, spans_dropped =
        drain Obs.Span.entries Obs.Span.dropped sink.Obs.Sink.spans
      and causal, causal_dropped =
        drain Obs.Causal.entries Obs.Causal.dropped sink.Obs.Sink.causal
      in
      Some
        {
          Obs.Run.reps =
            [
              {
                Obs.Run.rep_seed = spec.seed;
                trace;
                trace_dropped;
                series;
                facilities;
                profile =
                  (if ocfg.Obs.Config.profile then
                     Some (Sim.Engine.profile eng)
                   else None);
                spans;
                spans_dropped;
                causal;
                causal_dropped;
                metrics = sink.Obs.Sink.metrics;
              };
            ];
        }
    end
  in
  let result =
    {
      Simulator.algo = spec.algo;
      n_clients;
      mean_response = Metrics.mean_response metrics;
      response_stddev = Sim.Stats.stddev (Metrics.response_stats metrics);
      response_p50 = Metrics.response_quantile metrics 0.5;
      response_p95 = Metrics.response_quantile metrics 0.95;
      throughput = Metrics.throughput metrics ~now;
      commits;
      aborts = Metrics.aborts metrics;
      aborts_deadlock = Metrics.aborts_by metrics Metrics.Deadlock;
      aborts_stale = Metrics.aborts_by metrics Metrics.Stale_read;
      aborts_cert = Metrics.aborts_by metrics Metrics.Cert_fail;
      hit_ratio =
        (if lookups = 0 then 0.0
         else float_of_int (Metrics.hits metrics) /. float_of_int lookups);
      messages = Net.Network.messages_sent net;
      packets = Net.Network.packets_sent net;
      msgs_per_commit =
        (if commits = 0 then 0.0
         else
           float_of_int (Net.Network.messages_sent net) /. float_of_int commits);
      callbacks_sent = kind_msgs [ "callback_request" ];
      pushes_sent = kind_msgs [ "update_push"; "invalidate" ];
      server_cpu_util = favg_servers Server.cpu_utilization;
      client_cpu_util = client_cpu_util_mean;
      disk_util = favg_servers Server.mean_disk_utilization;
      log_disk_util =
        favg_servers (fun srv ->
            match Server.log_disk srv with
            | Some d -> Storage.Disk.utilization d
            | None -> 0.0);
      net_util = Net.Network.utilization net;
      window;
      sim_time;
      events = Sim.Engine.events_executed eng;
      aborts_lease = Metrics.aborts_by metrics Metrics.Lease_reclaim;
      retries = Metrics.retries metrics;
      crashes = Metrics.crashes metrics;
      recoveries = Metrics.recoveries metrics;
      lost_xacts = Metrics.lost_xacts metrics;
      reclaimed_locks = Metrics.reclaimed_locks metrics;
      lease_lapses = Metrics.lease_lapses metrics;
      msgs_dropped = Net.Network.messages_dropped net;
      msgs_delayed = Net.Network.messages_delayed net;
      msgs_duplicated = Net.Network.messages_duplicated net;
      mean_recovery = Metrics.mean_recovery metrics;
      server_crashes = Metrics.server_crashes metrics;
      server_recoveries = Metrics.server_recoveries metrics;
      server_killed_xacts = Metrics.server_killed_xacts metrics;
      checkpoints = Metrics.checkpoints metrics;
      server_downtime = Metrics.server_downtime metrics;
      mean_server_recovery = Metrics.mean_server_recovery metrics;
      n_shards;
      prepares = Metrics.prepares metrics;
      xshard_commits = Metrics.xshard_commits metrics;
      xshard_aborts = Metrics.xshard_aborts metrics;
      outcome_queries = Metrics.outcome_queries metrics;
      shard_commits = Array.map Server.local_commits servers;
      rep_mean_responses = [| Metrics.mean_response metrics |];
      rep_throughputs = [| Metrics.throughput metrics ~now |];
      stop =
        (if Metrics.total_commits metrics >= commit_target then
           Simulator.Target_reached
         else if sim_time >= spec.max_sim_time then Time_limit
         else Heap_drained);
      obs = obs_payload;
    }
  in
  ( result,
    {
      Simulator.rep_response = Metrics.response_stats metrics;
      rep_samples = Metrics.response_samples metrics;
      rep_lookups = Metrics.lookups metrics;
      rep_hits = Metrics.hits metrics;
    } )

let run ?audit ?inspect spec = fst (run_with_stats ?audit ?inspect spec)

let run_replicated ?(jobs = 1) (spec : Simulator.spec) ~reps =
  if reps <= 1 then run spec
  else begin
    let specs =
      List.init reps (fun k -> { spec with Simulator.seed = spec.seed + k })
    in
    let runs =
      if jobs > 1 then Sim.Pool.map ~jobs (fun s -> run_with_stats s) specs
      else List.map (fun s -> run_with_stats s) specs
    in
    Simulator.aggregate runs
  end
