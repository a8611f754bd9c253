(* The benchmark's six workloads.  Each is a fixed list of simulation
   cells; a cell's seed is [seed * 1000 + its index], so one --seed gives
   the same inputs on every run and different seeds give independent
   ones.  [scale] shrinks commit targets (and, for many-clients, the
   population) for the smoke test; the benchmark proper runs at 1.0.

   Every workload is closed-loop twice over: inside the model each
   simulated client starts its next transaction only after the previous
   one commits plus think time, and the benchmark runs the cells back to
   back in one process. *)

type kind =
  | Plain  (** [Shard.Shard_sim.run] with every observability channel off *)
  | Observed  (** every channel on, then the in-memory analyses *)
  | Audited  (** each run goes through [Experiments.Chaos.audit_run] *)

type cell = { label : string; spec : Core.Simulator.spec }

type t = {
  name : string;
  kind : kind;
  cells : seed:int -> scale:float -> cell list;
}

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* the paper's five algorithms plus the intra-caching variants and the
   invalidation ablation *)
let variants =
  Core.Proto.
    [
      Two_phase Inter;
      Two_phase Intra;
      Certification Inter;
      Certification Intra;
      Callback;
      No_wait { notify = None };
      No_wait { notify = Some Push };
      No_wait { notify = Some Invalidate };
    ]

let name_of algo = Core.Proto.algorithm_name algo

(* [cells] pairs a label with a spec built from the cell's seed *)
let numbered ~seed cells =
  List.mapi (fun i (label, make) -> { label; spec = make ((seed * 1000) + i) }) cells

let plain ~cfg ~pw ~loc ~warmup ~measured ?(obs = Obs.Config.off) algo seed =
  Core.Simulator.default_spec ~seed ~warmup_commits:warmup
    ~measured_commits:measured ~obs ~cfg
    ~xact_params:(Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc ())
    algo

(* Cache hits and retained locks dominate: the engine, the client cache
   and the message handlers do the work; almost no lock waits, and no log
   forces on the PW=0 cells. *)
let read_mostly ~seed ~scale =
  numbered ~seed
    (List.concat_map
       (fun algo ->
         [
           ( Printf.sprintf "%s/10c/pw0/loc.75" (name_of algo),
             plain
               ~cfg:(Core.Sys_params.table5 ~n_clients:10 ())
               ~pw:0.0 ~loc:0.75 ~warmup:(scaled scale 50)
               ~measured:(scaled scale 250) algo );
           ( Printf.sprintf "%s/25c/pw.05/loc.5" (name_of algo),
             plain
               ~cfg:(Core.Sys_params.table5 ~n_clients:25 ())
               ~pw:0.05 ~loc:0.5 ~warmup:(scaled scale 50)
               ~measured:(scaled scale 250) algo );
         ])
       variants)

(* The same layers as read-mostly, used for writes: lock waits, deadlock
   detection, aborts and restarts, callbacks and log forces dominate.
   Contention makes the cost of a commit vary from seed to seed, so each
   protocol runs under [replicas] seeds to average that out. *)
let write_contended ~seed ~scale =
  let replicas = 4 in
  numbered ~seed
    (List.concat_map
       (fun algo ->
         List.init replicas (fun k ->
             ( Printf.sprintf "%s/50c/pw.5/loc.75/rep%d" (name_of algo) k,
               plain
                 ~cfg:(Core.Sys_params.fast_server ~n_clients:50 ())
                 ~pw:0.5 ~loc:0.75 ~warmup:(scaled scale 50)
                 ~measured:(scaled scale 250) algo )))
       Experiments.Chaos.default_algos)

(* Per-client state, topology assembly and event-heap depth dominate.
   Callback locking is left out: at populations of 500 and more it drains
   its event heap short of the commit target (a known protocol wedge, see
   README.md), and a failing cell has no throughput to measure. *)
let many_clients_algos =
  Core.Proto.
    [ Two_phase Inter; Certification Inter; No_wait { notify = None } ]

let many_clients ~seed ~scale =
  let n_clients = scaled scale 5000 in
  numbered ~seed
    (List.map
       (fun algo ->
         ( Printf.sprintf "%s/%dc" (name_of algo) n_clients,
           plain
             ~cfg:(Core.Sys_params.table5 ~n_clients ())
             ~pw:0.2 ~loc:0.25 ~warmup:(scaled scale 100)
             ~measured:(scaled scale 400) algo ))
       many_clients_algos)

(* Router fan-out, presumed-abort 2PC and forced prepare records; every
   other workload runs one shard, which bypasses this path entirely.
   Replicas average out the seed-to-seed cost of cross-shard commits. *)
let sharded_2pc ~seed ~scale =
  let replicas = 4 in
  numbered ~seed
    (List.concat_map
       (fun algo ->
         List.init replicas (fun k ->
         ( Printf.sprintf "%s/8shards/skew1/rep%d" (name_of algo) k,
           fun seed ->
             let spec =
               plain
                 ~cfg:(Core.Sys_params.table5 ~n_clients:25 ())
                 ~pw:0.2 ~loc:0.25 ~warmup:(scaled scale 30)
                 ~measured:(scaled scale 300) algo seed
             in
             {
               spec with
               Core.Simulator.n_shards = 8;
               xact_params =
                 {
                   spec.Core.Simulator.xact_params with
                   Db.Xact_params.class_skew = 1.0;
                 };
             } )))
       Core.Proto.[ Two_phase Inter; Callback; Certification Inter ])

let all_channels =
  Obs.Config.make ~trace:true ~series:true ~profile:true ~spans:true
    ~metrics:true ~causal:true ()

(* Observability does most of the work; every other workload runs with
   every channel off. *)
let observed ~seed ~scale =
  numbered ~seed
    (List.map
       (fun algo ->
         ( name_of algo ^ "/10c/pw.05/loc.5",
           plain
             ~cfg:(Core.Sys_params.table5 ~n_clients:10 ())
             ~pw:0.05 ~loc:0.5 ~warmup:(scaled scale 50)
             ~measured:(scaled scale 250) ~obs:all_channels algo ))
       variants)

(* Fault injection, retries, log replay and the serializability audit
   dominate; the same audit CI runs through `ccsim chaos`.  One shard
   with server crashes exercises the redo log and recovery; four shards
   with the default plan (message loss, delay and duplication, client
   crashes) exercise retries through 2PC.  Two combinations that fail
   their audit at the parent commit stay out (see README.md): four
   shards under shard crashes, and no-wait with notification on four
   shards.  The cell seed is the plan seed, which [Chaos.spec] also makes
   the simulation seed. *)
let chaos_audit ~seed ~scale =
  let plans = 2 in
  let sharded_algos =
    List.filter
      (fun a -> a <> Core.Proto.No_wait { notify = Some Core.Proto.Push })
      Experiments.Chaos.default_algos
  in
  numbered ~seed
    (List.concat_map
       (fun (n_shards, algos, plan) ->
         List.concat_map
           (fun algo ->
             List.init plans (fun k ->
                 ( Printf.sprintf "%s/%dshard/plan%d" (name_of algo) n_shards k,
                   fun seed ->
                     Experiments.Chaos.spec ~n_shards
                       ~measured_commits:(scaled scale 150)
                       ~fault:(plan ~seed) algo )))
           algos)
       [
         (1, Experiments.Chaos.default_algos, fun ~seed -> Fault.Plan.server_default ~seed);
         (4, sharded_algos, fun ~seed -> Fault.Plan.default ~seed);
       ])

let all =
  [
    { name = "read-mostly"; kind = Plain; cells = read_mostly };
    { name = "write-contended"; kind = Plain; cells = write_contended };
    { name = "many-clients"; kind = Plain; cells = many_clients };
    { name = "sharded-2pc"; kind = Plain; cells = sharded_2pc };
    { name = "observed"; kind = Observed; cells = observed };
    { name = "chaos-audit"; kind = Audited; cells = chaos_audit };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
