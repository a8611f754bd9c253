(* Layer replays: run one workload's operation stream through a single
   layer's public functions in isolation, and report processor time
   ([Measure.cpu_now]) and allocated words per operation.  The stream
   comes from the workload's first cell (its configuration, database and
   transaction parameters) and from the traced pass (message sizes,
   commit sizes, holds and wakes per process). *)

type cost = { ns : float; words : float }

(* Repeat [batch] (which returns the operations it performed) until
   [min_s] seconds have passed. *)
let per_op ~min_s name batch =
  Measure.span ("replay " ^ name) (fun () ->
      let t0 = Measure.cpu_now () and w0 = Measure.allocated () in
      let elapsed () = Measure.cpu_now () -. t0 in
      let ops = ref 0 in
      while !ops = 0 || elapsed () < min_s do
        ops := !ops + batch ()
      done;
      let n = float_of_int !ops in
      {
        ns = elapsed () *. 1e9 /. n;
        words = (Measure.allocated () -. w0) /. n;
      })

(* [n] transaction profiles, drawn round-robin from one generator per
   client of the cell, as the simulator seeds them. *)
let profiles (spec : Core.Simulator.spec) n =
  let db = Db.Database.create spec.Core.Simulator.db_params in
  let master = Sim.Rng.create spec.Core.Simulator.seed in
  let owners = min 64 spec.Core.Simulator.cfg.Core.Sys_params.n_clients in
  let gens =
    Array.init owners (fun i ->
        Db.Workload.create db spec.Core.Simulator.xact_params
          ~rng:
            (Sim.Rng.split
               (Sim.Rng.split master (Printf.sprintf "client-%d" i))
               "workload"))
  in
  Array.init n (fun i -> (i mod owners, Db.Workload.next gens.(i mod owners)))

(* Engine: one long-lived process per client, each holding and, every
   [wake_every] holds, suspending until a scheduled callback resumes it. *)
let engine ~min_s ~procs ~holds_per_commit ~wakes_per_commit =
  let wake_every =
    max 1 (int_of_float (Float.round (holds_per_commit /. Float.max wakes_per_commit 1e-9)))
  in
  let holds = max 1 (20_000 / procs) in
  let delays = Array.init 1024 (fun i -> 0.001 *. float_of_int (1 + (i * 7919 mod 97))) in
  per_op ~min_s "Engine.spawn/hold/suspend" (fun () ->
        let eng = Sim.Engine.create () in
        for p = 0 to procs - 1 do
          Sim.Engine.spawn eng (fun () ->
              for i = 1 to holds do
                Sim.Engine.hold delays.((p + i) land 1023);
                if i mod wake_every = 0 then
                  Sim.Engine.suspend (fun resume ->
                      Sim.Engine.schedule eng
                        ~at:(Sim.Engine.now eng +. delays.(i land 1023))
                        resume)
              done)
        done;
        ignore (Sim.Engine.run eng ());
        Sim.Engine.events_executed eng)

let workload_next ~min_s (spec : Core.Simulator.spec) =
  let db = Db.Database.create spec.Core.Simulator.db_params in
  let g =
    Db.Workload.create db spec.Core.Simulator.xact_params
      ~rng:(Sim.Rng.create spec.Core.Simulator.seed)
  in
  per_op ~min_s "Workload.next" (fun () ->
      for _ = 1 to 1000 do
        ignore (Db.Workload.next g)
      done;
      1000)

(* One generator per simulated client, seeded as the simulator does. *)
let workload_create ~min_s (spec : Core.Simulator.spec) =
  let db = Db.Database.create spec.Core.Simulator.db_params in
  let n = spec.Core.Simulator.cfg.Core.Sys_params.n_clients in
  per_op ~min_s "Workload.create" (fun () ->
      let master = Sim.Rng.create spec.Core.Simulator.seed in
      for i = 0 to n - 1 do
        ignore
          (Db.Workload.create db spec.Core.Simulator.xact_params
             ~rng:
               (Sim.Rng.split
                  (Sim.Rng.split master (Printf.sprintf "client-%d" i))
                  "workload"))
      done;
      n)

(* Network: post a message stream with the traced per-kind sizes, one
   sender pacing itself at the wire time of each message. *)
let net_post ~min_s (spec : Core.Simulator.spec) ~kinds =
  let params = spec.Core.Simulator.cfg.Core.Sys_params.net in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 kinds in
  let sizes =
    if total = 0 then [| spec.Core.Simulator.cfg.Core.Sys_params.control_msg_bytes |]
    else
      Array.of_list
        (List.concat_map
           (fun (bytes, n) -> List.init (max 1 (n * 2000 / total)) (fun _ -> bytes))
           kinds)
  in
  let rng = Sim.Rng.create spec.Core.Simulator.seed in
  for i = Array.length sizes - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let x = sizes.(i) in
    sizes.(i) <- sizes.(j);
    sizes.(j) <- x
  done;
  per_op ~min_s "Network.post" (fun () ->
      let eng = Sim.Engine.create () in
      let net = Net.Network.create eng ~rng:(Sim.Rng.create 1) params in
      Sim.Engine.spawn eng (fun () ->
          Array.iter
            (fun bytes ->
              Net.Network.post net ~bytes ~deliver:ignore;
              Sim.Engine.hold
                (params.Net.Network.net_delay
                *. float_of_int (Net.Network.packets_for net ~bytes)))
            sizes);
      ignore (Sim.Engine.run eng ());
      Array.length sizes)

(* Client cache: the page-reference stream of the cell's transactions
   through an LRU pool of the configured cache size. *)
let lru ~min_s (spec : Core.Simulator.spec) =
  let refs =
    Array.of_list
      (List.concat_map
         (fun (_, p) ->
           List.map (fun pg -> (pg, false)) (Db.Workload.profile_read_pages p)
           @ List.map (fun pg -> (pg, true)) (Db.Workload.profile_write_pages p))
         (Array.to_list (profiles spec 2000)))
  in
  let capacity = spec.Core.Simulator.cfg.Core.Sys_params.cache_size in
  per_op ~min_s "Lru_pool.touch/insert" (fun () ->
      let pool = Storage.Lru_pool.create ~capacity in
      Array.iter
        (fun (page, dirty) ->
          if not (Storage.Lru_pool.touch pool page) then
            ignore (Storage.Lru_pool.insert pool page ~dirty))
        refs;
      Array.length refs)

(* Log manager: buffer and force one commit per traced commit size. *)
let log_force ~min_s (spec : Core.Simulator.spec) ~commit_sizes =
  let sizes = if commit_sizes = [||] then [| 1 |] else commit_sizes in
  let disk_params = spec.Core.Simulator.cfg.Core.Sys_params.disk in
  per_op ~min_s "Log_manager.append_commit/force_commit" (fun () ->
      let eng = Sim.Engine.create () in
      let disk =
        Storage.Disk.create eng ~rng:(Sim.Rng.create 1) ~name:"log" disk_params
      in
      let log = Storage.Log_manager.create eng ~disk () in
      Sim.Engine.spawn eng (fun () ->
          Array.iteri
            (fun xid n ->
              Storage.Log_manager.append_commit log ~xid
                ~updates:(List.init n (fun k -> (k, xid)));
              Storage.Log_manager.force_commit log ~n_updates:n)
            sizes);
      ignore (Sim.Engine.run eng ());
      Array.length sizes)

(* Lock table: each client's transactions take S locks on the pages they
   read and X locks on those they write, with at most MPL transactions
   holding locks at once; the oldest releases everything before the next
   begins. *)
let lock_table ~min_s (spec : Core.Simulator.spec) =
  let txns = profiles spec 2000 in
  let window =
    min spec.Core.Simulator.cfg.Core.Sys_params.mpl
      (min 64 spec.Core.Simulator.cfg.Core.Sys_params.n_clients)
  in
  per_op ~min_s "Lock_table.request/release_all" (fun () ->
      let lt = Cc.Lock_table.create () in
      let ops = ref 0 in
      let finish owner =
        Cc.Lock_table.cancel_all_waits lt owner;
        ops := !ops + List.length (Cc.Lock_table.release_all lt owner)
      in
      Array.iteri
        (fun i (owner, p) ->
          if i >= window then finish (fst txns.(i - window));
          let lock mode page =
            incr ops;
            ignore (Cc.Lock_table.request lt ~page owner mode ~wake:ignore)
          in
          List.iter (lock Cc.Lock_table.S) (Db.Workload.profile_read_pages p);
          List.iter (lock Cc.Lock_table.X) (Db.Workload.profile_write_pages p))
        txns;
      !ops)
