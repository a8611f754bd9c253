open Exp_defs

type decision_map = {
  localities : float list;
  write_probs : float list;
  winners : string array array;
}

type output = Figures of figure list | Map of decision_map

let table5_db = Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ()
let client_counts = [ 2; 10; 30; 50 ]

let spec ~cfg ~db ~xp algo =
  {
    Core.Simulator.cfg;
    db_params = db;
    xact_params = xp;
    mix = None;
    algo;
    n_shards = 1;
    seed = 0;
    warmup_commits = 0;
    measured_commits = 0;
    max_sim_time = 0.0;
    fault = Fault.Plan.none;
    obs = Obs.Config.off;
  }
(* seed/warmup/measured are overridden by the runner's options *)

(* A figure whose x-axis is the number of clients. *)
let clients_figure runner ~fig_id ~title ~metric ~make_cfg ~xp ~algos =
  let series =
    List.map
      (fun algo ->
        {
          label = Core.Proto.algorithm_name algo;
          points =
            List.map
              (fun n ->
                let cfg = make_cfg n in
                ( float_of_int n,
                  run runner (spec ~cfg ~db:table5_db ~xp algo) ))
              client_counts;
        })
      algos
  in
  { fig_id; title; xlabel = "clients"; metric; series }

let short ~pw ~loc = Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc ()

(* ------------------------------------------------------------------ *)
(* Section 4, experiment 1: the ACL comparison (Table 4)               *)
(* ------------------------------------------------------------------ *)

let acl runner =
  let mpls = [ 5; 10; 25; 50; 75; 100; 200 ] in
  let db = Db.Db_params.uniform ~n_classes:2 ~pages_per_class:500 () in
  let xp =
    {
      (Db.Xact_params.short_batch ~prob_write:0.25 ~inter_xact_loc:0.0 ()) with
      Db.Xact_params.inter_xact_set_size = 0;
    }
  in
  let series =
    List.map
      (fun algo ->
        {
          label = Core.Proto.algorithm_name algo;
          points =
            List.map
              (fun mpl ->
                let cfg = Core.Sys_params.table4 ~mpl in
                (float_of_int mpl, run runner (spec ~cfg ~db ~xp algo)))
              mpls;
        })
      [ Core.Proto.Two_phase Core.Proto.Intra;
        Core.Proto.Certification Core.Proto.Intra ]
  in
  Figures
    [
      {
        fig_id = "table4";
        title = "ACL verification: throughput vs MPL (2PL vs certification)";
        xlabel = "MPL";
        metric = Throughput;
        series;
      };
    ]

(* ------------------------------------------------------------------ *)
(* Section 4, experiment 2: intra vs inter caching (Figures 5-7)       *)
(* ------------------------------------------------------------------ *)

let intra_inter_algos =
  [
    Core.Proto.Two_phase Core.Proto.Inter;
    Core.Proto.Two_phase Core.Proto.Intra;
    Core.Proto.Certification Core.Proto.Inter;
    Core.Proto.Certification Core.Proto.Intra;
  ]

let intra_inter runner ~fig_id ~loc ~pw ~metric =
  clients_figure runner ~fig_id
    ~title:
      (Printf.sprintf "%s (Loc=%.2f, ProbWrite=%.1f) — intra vs inter"
         (match metric with
         | Response_time -> "Response Time"
         | Throughput -> "Throughput")
         loc pw)
    ~metric
    ~make_cfg:(fun n -> Core.Sys_params.table5 ~n_clients:n ())
    ~xp:(short ~pw ~loc) ~algos:intra_inter_algos

let fig5 runner =
  Figures
    [
      intra_inter runner ~fig_id:"fig5(a)" ~loc:0.05 ~pw:0.2 ~metric:Response_time;
      intra_inter runner ~fig_id:"fig5(b)" ~loc:0.05 ~pw:0.5 ~metric:Response_time;
    ]

let fig6 runner =
  Figures
    [
      intra_inter runner ~fig_id:"fig6(a)" ~loc:0.5 ~pw:0.0 ~metric:Response_time;
      intra_inter runner ~fig_id:"fig6(b)" ~loc:0.5 ~pw:0.5 ~metric:Response_time;
    ]

let fig7 runner =
  Figures
    [
      intra_inter runner ~fig_id:"fig7(a)" ~loc:0.5 ~pw:0.0 ~metric:Throughput;
      intra_inter runner ~fig_id:"fig7(b)" ~loc:0.5 ~pw:0.5 ~metric:Throughput;
    ]

(* ------------------------------------------------------------------ *)
(* Section 5.1: short transactions (Figures 8-12)                      *)
(* ------------------------------------------------------------------ *)

let s5_figure runner ~fig_id ~loc ~pw ~metric ~make_cfg ~xp_of =
  clients_figure runner ~fig_id
    ~title:
      (Printf.sprintf "%s (Loc=%.2f, ProbWrite=%.1f)"
         (match metric with
         | Response_time -> "Response Time"
         | Throughput -> "Throughput")
         loc pw)
    ~metric ~make_cfg ~xp:(xp_of ~pw ~loc)
    ~algos:Core.Proto.section5_algorithms

let short_fig runner ~fig_id ~loc ~pw ~metric =
  s5_figure runner ~fig_id ~loc ~pw ~metric
    ~make_cfg:(fun n -> Core.Sys_params.table5 ~n_clients:n ())
    ~xp_of:(fun ~pw ~loc -> short ~pw ~loc)

let pw_triple runner ~fig ~loc =
  Figures
    [
      short_fig runner ~fig_id:(fig ^ "(a)") ~loc ~pw:0.0 ~metric:Response_time;
      short_fig runner ~fig_id:(fig ^ "(b)") ~loc ~pw:0.2 ~metric:Response_time;
      short_fig runner ~fig_id:(fig ^ "(c)") ~loc ~pw:0.5 ~metric:Response_time;
    ]

let fig8 runner = pw_triple runner ~fig:"fig8" ~loc:0.05
let fig9 runner = pw_triple runner ~fig:"fig9" ~loc:0.25
let fig10 runner = pw_triple runner ~fig:"fig10" ~loc:0.50
let fig11 runner = pw_triple runner ~fig:"fig11" ~loc:0.75

let fig12 runner =
  Figures
    [
      short_fig runner ~fig_id:"fig12(a)" ~loc:0.25 ~pw:0.2 ~metric:Throughput;
      short_fig runner ~fig_id:"fig12(b)" ~loc:0.75 ~pw:0.2 ~metric:Throughput;
    ]

(* ------------------------------------------------------------------ *)
(* Figure 13: the 2PL / callback decision map at 50 clients            *)
(* ------------------------------------------------------------------ *)

let fig13 runner =
  let localities = [ 0.05; 0.25; 0.50; 0.75 ] in
  let write_probs = [ 0.0; 0.1; 0.2; 0.35; 0.5 ] in
  let cfg = Core.Sys_params.table5 ~n_clients:50 () in
  let response algo ~loc ~pw =
    (run runner (spec ~cfg ~db:table5_db ~xp:(short ~pw ~loc) algo))
      .Core.Simulator.mean_response
  in
  let winners =
    Array.of_list
      (List.map
         (fun pw ->
           Array.of_list
             (List.map
                (fun loc ->
                  let two = response (Core.Proto.Two_phase Core.Proto.Inter) ~loc ~pw in
                  let cb = response Core.Proto.Callback ~loc ~pw in
                  if cb < 0.97 *. two then "callback"
                  else if two < 0.97 *. cb then "2PL"
                  else "either")
                localities))
         write_probs)
  in
  Map { localities; write_probs; winners }

(* ------------------------------------------------------------------ *)
(* Section 5.2: large transactions (Figures 14-15)                     *)
(* ------------------------------------------------------------------ *)

let large_fig runner ~fig_id ~loc ~pw =
  s5_figure runner ~fig_id ~loc ~pw ~metric:Response_time
    ~make_cfg:(fun n -> Core.Sys_params.table5 ~n_clients:n ())
    ~xp_of:(fun ~pw ~loc ->
      Db.Xact_params.large_batch ~prob_write:pw ~inter_xact_loc:loc ())

let fig14 runner =
  Figures
    [
      large_fig runner ~fig_id:"fig14(a)" ~loc:0.25 ~pw:0.2;
      large_fig runner ~fig_id:"fig14(b)" ~loc:0.25 ~pw:0.5;
    ]

let fig15 runner =
  Figures
    [
      large_fig runner ~fig_id:"fig15(a)" ~loc:0.75 ~pw:0.2;
      large_fig runner ~fig_id:"fig15(b)" ~loc:0.75 ~pw:0.5;
    ]

(* ------------------------------------------------------------------ *)
(* Section 5.3: fast server (Figures 16-17)                            *)
(* ------------------------------------------------------------------ *)

let fast_fig runner ~fig_id ~loc ~pw ~metric =
  s5_figure runner ~fig_id ~loc ~pw ~metric
    ~make_cfg:(fun n -> Core.Sys_params.fast_server ~n_clients:n ())
    ~xp_of:(fun ~pw ~loc -> short ~pw ~loc)

let fig16 runner =
  Figures
    [
      fast_fig runner ~fig_id:"fig16(a)" ~loc:0.25 ~pw:0.2 ~metric:Response_time;
      fast_fig runner ~fig_id:"fig16(b)" ~loc:0.25 ~pw:0.5 ~metric:Response_time;
    ]

let fig17 runner =
  Figures
    [
      fast_fig runner ~fig_id:"fig17(a)" ~loc:0.75 ~pw:0.2 ~metric:Response_time;
      fast_fig runner ~fig_id:"fig17(b)" ~loc:0.75 ~pw:0.5 ~metric:Response_time;
    ]

(* ------------------------------------------------------------------ *)
(* Section 5.4: fast server, no network delay (Figures 18-21)          *)
(* ------------------------------------------------------------------ *)

let fastnet_fig runner ~fig_id ~loc ~pw ~metric =
  s5_figure runner ~fig_id ~loc ~pw ~metric
    ~make_cfg:(fun n -> Core.Sys_params.fast_server_fast_net ~n_clients:n ())
    ~xp_of:(fun ~pw ~loc -> short ~pw ~loc)

let fig18 runner =
  Figures
    [
      fastnet_fig runner ~fig_id:"fig18(a)" ~loc:0.25 ~pw:0.2 ~metric:Response_time;
      fastnet_fig runner ~fig_id:"fig18(b)" ~loc:0.25 ~pw:0.5 ~metric:Response_time;
    ]

let fig19 runner =
  Figures
    [
      fastnet_fig runner ~fig_id:"fig19(a)" ~loc:0.75 ~pw:0.0 ~metric:Response_time;
      fastnet_fig runner ~fig_id:"fig19(b)" ~loc:0.75 ~pw:0.5 ~metric:Response_time;
    ]

let fig20 runner =
  Figures
    [ fastnet_fig runner ~fig_id:"fig20" ~loc:0.25 ~pw:0.5 ~metric:Throughput ]

let fig21 runner =
  Figures
    [ fastnet_fig runner ~fig_id:"fig21" ~loc:0.75 ~pw:0.5 ~metric:Throughput ]

(* ------------------------------------------------------------------ *)
(* Section 5.5: interactive transactions (Figure 22)                   *)
(* ------------------------------------------------------------------ *)

let interactive_fig runner ~fig_id ~loc ~pw =
  s5_figure runner ~fig_id ~loc ~pw ~metric:Response_time
    ~make_cfg:(fun n -> Core.Sys_params.table5 ~n_clients:n ())
    ~xp_of:(fun ~pw ~loc ->
      Db.Xact_params.interactive ~prob_write:pw ~inter_xact_loc:loc ())

let fig22 runner =
  Figures
    [
      interactive_fig runner ~fig_id:"fig22(a)" ~loc:0.25 ~pw:0.0;
      interactive_fig runner ~fig_id:"fig22(b)" ~loc:0.25 ~pw:0.5;
    ]

(* ------------------------------------------------------------------ *)
(* Extension: push vs invalidate notification                          *)
(* ------------------------------------------------------------------ *)

let notify_ablation runner =
  let algos =
    [
      Core.Proto.No_wait { notify = None };
      Core.Proto.No_wait { notify = Some Core.Proto.Push };
      Core.Proto.No_wait { notify = Some Core.Proto.Invalidate };
    ]
  in
  let fig ~loc ~pw =
    clients_figure runner
      ~fig_id:(Printf.sprintf "ablate-notify(loc=%.2f,pw=%.1f)" loc pw)
      ~title:
        (Printf.sprintf
           "Notification mode ablation, fast server + fast net (Loc=%.2f, \
            ProbWrite=%.1f)"
           loc pw)
      ~metric:Response_time
      ~make_cfg:(fun n -> Core.Sys_params.fast_server_fast_net ~n_clients:n ())
      ~xp:(short ~pw ~loc) ~algos
  in
  Figures [ fig ~loc:0.25 ~pw:0.5; fig ~loc:0.75 ~pw:0.5 ]


(* ------------------------------------------------------------------ *)
(* Ablations of our documented design decisions (DESIGN.md)            *)
(* ------------------------------------------------------------------ *)

(* A figure whose series are configuration variants of one algorithm. *)
let variant_figure runner ~fig_id ~title ~metric ~variants ~xp ?(db = table5_db)
    ?(counts = [ 10; 30; 50 ]) algo =
  let series =
    List.map
      (fun (label, make_cfg) ->
        {
          label;
          points =
            List.map
              (fun n -> (float_of_int n, run runner (spec ~cfg:(make_cfg n) ~db ~xp algo)))
              counts;
        })
      variants
  in
  { fig_id; title; xlabel = "clients"; metric; series }

let ablate_stale runner =
  let xp = Db.Xact_params.large_batch ~prob_write:0.5 ~inter_xact_loc:0.25 () in
  let v label f = (label, fun n -> f (Core.Sys_params.table5 ~n_clients:n ())) in
  Figures
    [
      variant_figure runner ~fig_id:"ablate-stale"
        ~title:
          "No-wait staleness abort: drop the whole read set vs only the \
           reported page (large xacts, Loc=0.25, PW=0.5)"
        ~metric:Response_time
        ~variants:
          [
            v "drop-all" (fun c -> c);
            v "drop-one" (fun c -> { c with Core.Sys_params.stale_drop_all = false });
          ]
        ~xp
        (Core.Proto.No_wait { notify = None });
    ]

let ablate_grace runner =
  let xp = Db.Xact_params.large_batch ~prob_write:0.5 ~inter_xact_loc:0.75 () in
  let v label g =
    (label, fun n -> { (Core.Sys_params.table5 ~n_clients:n ()) with Core.Sys_params.callback_grace = g })
  in
  Figures
    [
      variant_figure runner ~fig_id:"ablate-grace"
        ~title:
          "Callback deadlock detection: grace period vs immediate (the \
           spurious retained-lock cycles of paper sec. 6)"
        ~metric:Response_time
        ~variants:[ v "grace-50ms" 0.05; v "immediate" 0.0 ]
        ~xp ~counts:[ 10; 30 ] Core.Proto.Callback;
    ]

let ablate_restart runner =
  let xp = Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.5 () in
  let v label p =
    (label, fun n -> { (Core.Sys_params.table5 ~n_clients:n ()) with Core.Sys_params.restart_policy = p })
  in
  Figures
    [
      variant_figure runner ~fig_id:"ablate-restart"
        ~title:"Restart delay policy under contention (2PL, Loc=0.5, PW=0.5)"
        ~metric:Response_time
        ~variants:
          [
            v "adaptive" Core.Sys_params.Adaptive;
            v "fixed-1s" (Core.Sys_params.Fixed 1.0);
            v "immediate" Core.Sys_params.Immediate;
          ]
        ~xp
        (Core.Proto.Two_phase Core.Proto.Inter);
    ]

(* The paper's section 3.1 models object size and clustering but never
   exercises them ("We did not study the impact of large objects or object
   clustering in our initial experiments") — this experiment does. *)
let objsize_extension runner =
  let xp = short ~pw:0.2 ~loc:0.25 in
  let db ~size ~cf =
    {
      (Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ~object_size:size ()) with
      Db.Db_params.cluster_factor = cf;
    }
  in
  let series =
    List.map
      (fun (label, size, cf) ->
        {
          label;
          points =
            List.map
              (fun n ->
                ( float_of_int n,
                  run runner
                    (spec
                       ~cfg:(Core.Sys_params.table5 ~n_clients:n ())
                       ~db:(db ~size ~cf) ~xp
                       (Core.Proto.Two_phase Core.Proto.Inter)) ))
              [ 10; 30; 50 ];
        })
      [
        ("size1", 1, 1.0);
        ("size4-clustered", 4, 1.0);
        ("size4-scattered", 4, 0.0);
      ]
  in
  Figures
    [
      {
        fig_id = "ext-objsize";
        title =
          "Extension: object size and clustering under 2PL (Loc=0.25, PW=0.2)";
        xlabel = "clients";
        metric = Response_time;
        series;
      };
    ]

let mpl_extension runner =
  let xp = short ~pw:0.5 ~loc:0.25 in
  let series =
    List.map
      (fun algo ->
        {
          label = Core.Proto.algorithm_name algo;
          points =
            List.map
              (fun mpl ->
                ( float_of_int mpl,
                  run runner
                    (spec
                       ~cfg:{ (Core.Sys_params.table5 ~n_clients:50 ()) with Core.Sys_params.mpl }
                       ~db:table5_db ~xp algo) ))
              [ 5; 10; 25; 50 ];
        })
      [ Core.Proto.Two_phase Core.Proto.Inter; Core.Proto.Certification Core.Proto.Inter ]
  in
  Figures
    [
      {
        fig_id = "ext-mpl";
        title =
          "Extension: MPL admission control in the client/server setting (50 \
           clients, Loc=0.25, PW=0.5)";
        xlabel = "MPL";
        metric = Throughput;
        series;
      };
    ]

(* The paper chose to retain only read locks (§2.3, "write locks are more
   likely to cause incompatibility"); this measures the alternative. *)
let retain_writes_ablation runner =
  let v label rw =
    ( label,
      fun n ->
        { (Core.Sys_params.table5 ~n_clients:n ()) with
          Core.Sys_params.callback_retain_writes = rw } )
  in
  let fig ~loc ~pw =
    variant_figure runner
      ~fig_id:(Printf.sprintf "ablate-retain-writes(loc=%.2f,pw=%.1f)" loc pw)
      ~title:
        (Printf.sprintf
           "Callback locking: retain read locks only (paper) vs read+write \
            locks (Loc=%.2f, PW=%.1f)"
           loc pw)
      ~metric:Response_time
      ~variants:[ v "retain-reads" false; v "retain-read+write" true ]
      ~xp:(short ~pw ~loc) Core.Proto.Callback
  in
  Figures [ fig ~loc:0.75 ~pw:0.2; fig ~loc:0.75 ~pw:0.5 ]

(* The "two-phase locking with notification" the paper's section 5.1 text
   mentions: update propagation composed with 2PL. *)
let two_pl_notify_extension runner =
  let xp = short ~pw:0.2 ~loc:0.5 in
  let v label nu =
    ( label,
      fun n ->
        { (Core.Sys_params.table5 ~n_clients:n ()) with Core.Sys_params.notify_updates = nu } )
  in
  Figures
    [
      variant_figure runner ~fig_id:"ext-2pl-notify"
        ~title:
          "Extension: 2PL with update notification (Loc=0.5, PW=0.2)"
        ~metric:Response_time
        ~variants:
          [
            v "plain" None;
            v "push" (Some Core.Proto.Push);
            v "invalidate" (Some Core.Proto.Invalidate);
          ]
        ~xp
        (Core.Proto.Two_phase Core.Proto.Inter);
    ]

(* A mixed workload (paper §3.2 allows "a mix of transactions belonging to
   different types"): mostly short read-mostly interactions with occasional
   large batch updaters — the OODB scenario the paper's introduction
   motivates. *)
let mix_extension runner =
  let mix =
    [
      (0.8, Db.Xact_params.short_batch ~prob_write:0.1 ~inter_xact_loc:0.6 ());
      (0.2, Db.Xact_params.large_batch ~prob_write:0.4 ~inter_xact_loc:0.2 ());
    ]
  in
  let series =
    List.map
      (fun algo ->
        {
          label = Core.Proto.algorithm_name algo;
          points =
            List.map
              (fun n ->
                let s =
                  {
                    (spec
                       ~cfg:(Core.Sys_params.table5 ~n_clients:n ())
                       ~db:table5_db
                       ~xp:(short ~pw:0.1 ~loc:0.6)
                       algo)
                    with
                    Core.Simulator.mix = Some mix;
                  }
                in
                (float_of_int n, run runner s))
              [ 10; 30; 50 ];
        })
      Core.Proto.section5_algorithms
  in
  Figures
    [
      {
        fig_id = "ext-mix";
        title =
          "Extension: mixed workload — 80% short read-mostly + 20% large \
           updaters";
        xlabel = "clients";
        metric = Response_time;
        series;
      };
    ]

(* ------------------------------------------------------------------ *)
(* Extension: multi-server sharding (1 -> 16 shards, 2PC)              *)
(* ------------------------------------------------------------------ *)

(* Throughput and response time versus shard count, under a uniform
   access pattern (traffic spreads evenly, most commits single-shard at
   low locality only by luck of the draw) and a Zipf hot-shard pattern
   (class skew concentrates traffic on shard 0, so extra shards buy
   little and 2PC overhead dominates).  The 1-shard column is the
   single-server simulator and so doubles as the bit-identity anchor. *)
let shard_counts = [ 1; 2; 4; 8; 16 ]

let shard_sweep runner =
  let patterns = [ ("uniform", 0.0); ("zipf-hot", 0.9) ] in
  let cfg = Core.Sys_params.table5 ~n_clients:50 () in
  let fig metric =
    let series =
      List.map
        (fun (label, skew) ->
          {
            label;
            points =
              List.map
                (fun n_shards ->
                  let xp =
                    { (short ~pw:0.2 ~loc:0.25) with
                      Db.Xact_params.class_skew = skew }
                  in
                  let s =
                    {
                      (spec ~cfg ~db:table5_db ~xp
                         (Core.Proto.Two_phase Core.Proto.Inter))
                      with
                      Core.Simulator.n_shards;
                    }
                  in
                  (float_of_int n_shards, run runner s))
                shard_counts;
          })
        patterns
    in
    {
      fig_id =
        (match metric with
        | Throughput -> "ext-shard(tput)"
        | Response_time -> "ext-shard(resp)");
      title =
        "Extension: multi-server sharding with 2PC (50 clients, 2PL, \
         Loc=0.25, PW=0.2) — uniform vs hot-shard access";
      xlabel = "shards";
      metric;
      series;
    }
  in
  Figures [ fig Throughput; fig Response_time ]

let all =
  [
    (* 2PL vs certification on the ACL centralized configuration *)
    ("acl", "§4 exp 1: ACL comparison, throughput vs MPL (Table 4)", acl);
    ("fig5", "§4 exp 2: intra vs inter, Loc=0.05 (Fig 5a,b)", fig5);
    ("fig6", "§4 exp 2: intra vs inter, Loc=0.50 (Fig 6a,b)", fig6);
    ("fig7", "§4 exp 2: throughput, Loc=0.50 (Fig 7a,b)", fig7);
    ("fig8", "§5.1 short xacts, Loc=0.05 (Fig 8a-c)", fig8);
    ("fig9", "§5.1 short xacts, Loc=0.25 (Fig 9a-c)", fig9);
    ("fig10", "§5.1 short xacts, Loc=0.50 (Fig 10a-c)", fig10);
    ("fig11", "§5.1 short xacts, Loc=0.75 (Fig 11a-c)", fig11);
    ("fig12", "§5.1 throughput, PW=0.2 (Fig 12a,b)", fig12);
    ("fig13", "§5.1 decision map: best algorithm (Fig 13)", fig13);
    ("fig14", "§5.2 large xacts, Loc=0.25 (Fig 14a,b)", fig14);
    ("fig15", "§5.2 large xacts, Loc=0.75 (Fig 15a,b)", fig15);
    ("fig16", "§5.3 fast server, Loc=0.25 (Fig 16a,b)", fig16);
    ("fig17", "§5.3 fast server, Loc=0.75 (Fig 17a,b)", fig17);
    ("fig18", "§5.4 fast net+server, Loc=0.25 (Fig 18a,b)", fig18);
    ("fig19", "§5.4 fast net+server, Loc=0.75 (Fig 19a,b)", fig19);
    ("fig20", "§5.4 throughput, Loc=0.25 (Fig 20)", fig20);
    ("fig21", "§5.4 throughput, Loc=0.75 (Fig 21)", fig21);
    ("fig22", "§5.5 interactive, Loc=0.25 (Fig 22a,b)", fig22);
    (* not in the paper; on the fast-server/fast-network setup *)
    ("ablate-notify", "extension: push vs invalidate notification", notify_ablation);
    (* ablations of the design decisions documented in DESIGN.md *)
    ("ablate-stale", "ablation: staleness abort drops read set vs one page", ablate_stale);
    ("ablate-grace", "ablation: callback deadlock grace period vs immediate", ablate_grace);
    ("ablate-restart", "ablation: restart delay policy", ablate_restart);
    ("ext-objsize", "extension: object size and clustering (paper future work)", objsize_extension);
    ("ext-mpl", "extension: MPL admission control client/server", mpl_extension);
    ("ext-2pl-notify", "extension: 2PL with update notification", two_pl_notify_extension);
    (* the §2.3 choice *)
    ( "ablate-retain-writes",
      "ablation: callback retains read locks only vs read+write",
      retain_writes_ablation );
    ("ext-mix", "extension: mixed transaction types (paper §3.2)", mix_extension);
    ( "shard-sweep",
      "extension: 1-16 shard servers with 2PC, uniform vs hot-shard access",
      shard_sweep );
  ]

let find id = List.find_opt (fun (i, _, _) -> i = id) all

let client_sweep_id = "client-sweep"

type selection = {
  figures : (string * string * (runner -> output)) list;
  client_sweep : bool;
}

let resolve ids =
  let known id = id = "all" || id = client_sweep_id || find id <> None in
  match (ids, List.find_opt (fun id -> not (known id)) ids) with
  | _, Some id -> Error (Printf.sprintf "unknown experiment %S (try 'ccsim list')" id)
  | [], None -> Error "no experiment ids given (try 'ccsim list')"
  | _, None ->
      Ok
        {
          figures = (if List.mem "all" ids then all else List.filter_map find ids);
          client_sweep = List.mem client_sweep_id ids;
        }

let pp_list ppf () =
  let entries =
    List.map (fun (id, descr, _) -> (id, descr)) all
    @ [
        ( client_sweep_id,
          "scalability: engine events/s and heap vs client population \
           (excluded from 'all')" );
      ]
  in
  let width = List.fold_left (fun w (id, _) -> max w (String.length id)) 0 entries in
  List.iter (fun (id, descr) -> Format.fprintf ppf "%-*s %s@." width id descr) entries
