(* Tests for the deterministic fault-injection subsystem (lib/fault), the
   protocol recovery paths, and the chaos-audit harness. *)

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Fault.Plan                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_none_inactive () =
  Alcotest.(check bool) "none is inactive" false
    (Fault.Plan.active Fault.Plan.none);
  Fault.Plan.validate Fault.Plan.none;
  Alcotest.(check string) "prints as none" "none"
    (Fault.Plan.to_string Fault.Plan.none)

let test_plan_default_valid () =
  for seed = 1 to 5 do
    let p = Fault.Plan.default ~seed in
    Alcotest.(check bool) "default is active" true (Fault.Plan.active p);
    Fault.Plan.validate p
  done

let test_plan_validate_rejects () =
  let reject p =
    match Fault.Plan.validate p with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  reject { Fault.Plan.none with Fault.Plan.drop_prob = 1.5 };
  reject { Fault.Plan.none with Fault.Plan.delay_mean = -1.0 };
  (* active plan without a request timeout cannot survive message loss *)
  reject { Fault.Plan.none with Fault.Plan.drop_prob = 0.1 };
  (* crashes under message loss need the lease backstop *)
  reject
    {
      (Fault.Plan.default ~seed:1) with
      Fault.Plan.lease = 0.0;
      callback_retry = 0.0;
    }

let test_plan_shrink_candidates () =
  let p = Fault.Plan.default ~seed:7 in
  let cands = Fault.Plan.shrink_candidates p in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "candidate differs" true (c <> p);
      Alcotest.(check bool) "candidate still active" true
        (Fault.Plan.active c);
      Alcotest.(check int) "seed preserved" p.Fault.Plan.seed
        c.Fault.Plan.seed)
    cands

let test_injector_deterministic () =
  let plan = Fault.Plan.default ~seed:3 in
  let draw () =
    let inj = Fault.Injector.create plan in
    List.init 500 (fun _ ->
        let v = Fault.Injector.message inj in
        (v.Fault.Injector.drop, v.Fault.Injector.extra_delay,
         v.Fault.Injector.copies))
  in
  Alcotest.(check bool) "same plan, same verdict stream" true
    (draw () = draw ());
  let some_drop =
    List.exists (fun (d, _, _) -> d) (draw ())
  and some_dup = List.exists (fun (_, _, c) -> c > 1) (draw ()) in
  Alcotest.(check bool) "drops occur" true some_drop;
  Alcotest.(check bool) "duplicates occur" true some_dup

(* ------------------------------------------------------------------ *)
(* Server-fault plans                                                  *)
(* ------------------------------------------------------------------ *)

let test_server_plan_defaults () =
  let p = Fault.Plan.server_default ~seed:9 in
  Fault.Plan.validate p;
  Alcotest.(check bool) "active" true (Fault.Plan.active p);
  Alcotest.(check (float 0.0)) "no client crashes" 0.0 p.Fault.Plan.crash_mean;
  Alcotest.(check (float 0.0)) "quiet network" 0.0 p.Fault.Plan.drop_prob;
  Alcotest.(check bool) "server crashes on" true
    (p.Fault.Plan.server_crash_mean > 0.0);
  Alcotest.(check bool) "checkpoints on" true
    (p.Fault.Plan.checkpoint_interval > 0.0)

let test_server_plan_validate_rejects () =
  let reject p =
    match Fault.Plan.validate p with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  let sd = Fault.Plan.server_default ~seed:1 in
  reject { sd with Fault.Plan.server_crash_mean = -1.0 };
  reject { sd with Fault.Plan.server_restart_mean = -0.5 };
  reject { sd with Fault.Plan.checkpoint_interval = -5.0 };
  (* a checkpointer with nothing that can ever crash is dead weight *)
  reject { sd with Fault.Plan.server_crash_mean = 0.0 };
  reject { (Fault.Plan.default ~seed:1) with Fault.Plan.checkpoint_interval = 3.0 }

(* Golden shrink order: pure server plans soften only the three server
   knobs, in a pinned order; combined plans offer the whole-dimension
   drop at a pinned position.  The shrinker's descent path — and so every
   minimal reproducer — depends on this order staying put. *)
let test_server_shrink_golden () =
  let feq name want got = Alcotest.(check (float 1e-9)) name want got in
  (match Fault.Plan.shrink_candidates (Fault.Plan.server_default ~seed:7) with
  | [ a; b; c ] ->
      feq "1st: rarer crashes" 16.0 a.Fault.Plan.server_crash_mean;
      feq "2nd: faster restarts" 0.25 b.Fault.Plan.server_restart_mean;
      feq "3rd: tighter checkpoints" 2.5 c.Fault.Plan.checkpoint_interval
  | l ->
      Alcotest.failf "expected exactly 3 server-plan candidates, got %d"
        (List.length l));
  let combined =
    {
      (Fault.Plan.default ~seed:7) with
      Fault.Plan.server_crash_mean = 8.0;
      server_restart_mean = 0.5;
      checkpoint_interval = 5.0;
    }
  in
  let cands = Fault.Plan.shrink_candidates combined in
  let nth n = List.nth cands n in
  (* candidate 4 zeroes the whole server dimension at once *)
  feq "server dim dropped" 0.0 (nth 4).Fault.Plan.server_crash_mean;
  feq "ckpt dropped with it" 0.0 (nth 4).Fault.Plan.checkpoint_interval;
  Alcotest.(check bool) "still active without the server dim" true
    (Fault.Plan.active (nth 4));
  (* the three server softenings close the list, in golden order *)
  (match List.rev cands with
  | c3 :: c2 :: c1 :: _ ->
      feq "rarer crashes" 16.0 c1.Fault.Plan.server_crash_mean;
      feq "faster restarts" 0.25 c2.Fault.Plan.server_restart_mean;
      feq "tighter checkpoints" 2.5 c3.Fault.Plan.checkpoint_interval
  | _ -> Alcotest.fail "combined plan has too few candidates")

let test_server_stream_deterministic () =
  let draws plan =
    let rng = Fault.Injector.server_stream plan in
    List.init 100 (fun _ -> Sim.Rng.exponential rng ~mean:8.0)
  in
  let p = Fault.Plan.server_default ~seed:5 in
  Alcotest.(check bool) "same plan, same stream" true (draws p = draws p);
  Alcotest.(check bool) "different seed, different stream" true
    (draws p <> draws (Fault.Plan.server_default ~seed:6))

(* ------------------------------------------------------------------ *)
(* Chaos audits                                                        *)
(* ------------------------------------------------------------------ *)

let quick_spec ?hot ~fault algo =
  Experiments.Chaos.spec ?hot ~measured_commits:120 ~fault algo

let test_faultfree_run_clean () =
  let v =
    Experiments.Chaos.audit_run (quick_spec ~fault:Fault.Plan.none Core.Proto.Callback)
  in
  Alcotest.(check bool) "audit passes" true (Experiments.Chaos.ok v);
  let r = Option.get v.Experiments.Chaos.v_result in
  Alcotest.(check int) "no retries" 0 r.Core.Simulator.retries;
  Alcotest.(check int) "no crashes" 0 r.Core.Simulator.crashes;
  Alcotest.(check int) "no drops" 0 r.Core.Simulator.msgs_dropped

(* Every algorithm must stay serializable, live, and invariant-clean under
   a lossy, crashy plan — the heart of the chaos acceptance criterion. *)
let test_all_algorithms_survive_faults () =
  List.iter
    (fun algo ->
      let fault = Fault.Plan.default ~seed:11 in
      let v = Experiments.Chaos.audit_run (quick_spec ~fault algo) in
      if not (Experiments.Chaos.ok v) then
        Alcotest.failf "%s failed audit: %s"
          (Core.Proto.algorithm_name algo)
          (String.concat "; " v.Experiments.Chaos.v_errors);
      let r = Option.get v.Experiments.Chaos.v_result in
      Alcotest.(check bool)
        (Core.Proto.algorithm_name algo ^ " saw real adversity")
        true
        (r.Core.Simulator.msgs_dropped > 0 && r.Core.Simulator.retries > 0))
    Experiments.Chaos.default_algos

(* A plan that drops every message commits nothing and transmits nothing
   to duplicate: the audit reports the run stuck and nothing about
   duplication. *)
let test_total_loss_stuck_not_duplication () =
  let fault = { (Fault.Plan.default ~seed:1) with Fault.Plan.drop_prob = 1.0 } in
  let v =
    Experiments.Chaos.audit_run
      (quick_spec ~fault (Core.Proto.Two_phase Core.Proto.Inter))
  in
  let reports what =
    List.exists
      (String.starts_with ~prefix:what)
      v.Experiments.Chaos.v_errors
  in
  Alcotest.(check bool) "stuck" true (reports "stuck");
  Alcotest.(check bool) "no duplication error" false (reports "duplication")

let test_crashes_recovered () =
  let fault = Fault.Plan.default ~seed:4 in
  let v =
    Experiments.Chaos.audit_run
      (quick_spec ~fault (Core.Proto.Two_phase Core.Proto.Inter))
  in
  Alcotest.(check bool) "audit passes" true (Experiments.Chaos.ok v);
  let r = Option.get v.Experiments.Chaos.v_result in
  Alcotest.(check bool) "crashes occurred" true (r.Core.Simulator.crashes > 0);
  Alcotest.(check bool) "recoveries happened" true
    (r.Core.Simulator.recoveries > 0)

let test_verdicts_deterministic_across_jobs () =
  let specs =
    List.map
      (fun seed ->
        quick_spec ~fault:(Fault.Plan.default ~seed) Core.Proto.Callback)
      [ 1; 2 ]
  in
  let v1 = Experiments.Chaos.sweep ~jobs:1 specs in
  let v2 = Experiments.Chaos.sweep ~jobs:2 specs in
  Alcotest.(check bool) "jobs=1 and jobs=2 verdicts identical" true (v1 = v2)

(* The durability acceptance gate in miniature: every algorithm must pass
   the full audit — serializability, liveness, lock/cache sweeps, AND the
   durability checks against the redo log — under plans that repeatedly
   crash and recover the server. *)
let test_server_faults_audited () =
  let specs =
    List.concat_map
      (fun algo ->
        List.map
          (fun seed ->
            Experiments.Chaos.spec ~measured_commits:100
              ~fault:(Fault.Plan.server_default ~seed) algo)
          [ 3; 4 ])
      Experiments.Chaos.default_algos
  in
  let verdicts = Experiments.Chaos.sweep ~jobs:2 specs in
  List.iter2
    (fun (sp : Core.Simulator.spec) v ->
      if not (Experiments.Chaos.ok v) then
        Alcotest.failf "%s seed=%d failed audit: %s"
          (Core.Proto.algorithm_name sp.Core.Simulator.algo)
          sp.Core.Simulator.fault.Fault.Plan.seed
          (String.concat "; " v.Experiments.Chaos.v_errors))
    specs verdicts;
  let crashes =
    List.fold_left
      (fun acc v ->
        match v.Experiments.Chaos.v_result with
        | Some r -> acc + r.Core.Simulator.server_crashes
        | None -> acc)
      0 verdicts
  in
  Alcotest.(check bool) "server crashes actually happened" true (crashes > 0)

(* The population-scaling refactors (map-indexed lock table, flat lease
   sweep, gauge-based sampler probes) must not disturb cross-jobs
   determinism at fleet scale: a 10k-client run under an active
   client-crash plan must produce bit-identical results whether its
   replications run sequentially or on a 4-worker pool. *)
let test_large_population_deterministic_across_jobs () =
  let cfg = Core.Sys_params.table5 ~n_clients:10_000 () in
  let xp =
    Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ()
  in
  (* [Plan.default] is tuned for 50-client chaos runs; at fleet scale its
     per-client crash rate and 1 s request timeout produce a genuine
     (modeled) congestion collapse — MPL-admission queueing alone exceeds
     the timeout, so every request retries forever and nothing commits.
     Scale the per-client crash mean so the *fleet* crash rate stays at
     the 50-client default, and stretch the timeout/lease horizons past
     the admission-queue delay.  Drops, delays and dups keep their
     defaults, so the recovery paths still fire (the run below sees ~50
     crashes and hundreds of dropped messages). *)
  let fault =
    {
      (Fault.Plan.default ~seed:11) with
      Fault.Plan.crash_mean = 15_000.0;
      req_timeout = 60.0;
      max_backoff = 240.0;
      lease = 600.0;
      callback_retry = 60.0;
    }
  in
  let spec =
    Core.Simulator.default_spec ~seed:11 ~warmup_commits:20
      ~measured_commits:80 ~fault ~cfg ~xact_params:xp Core.Proto.Callback
  in
  let seq = Shard.Shard_sim.run_replicated ~jobs:1 spec ~reps:2 in
  let par = Shard.Shard_sim.run_replicated ~jobs:4 spec ~reps:2 in
  Alcotest.(check bool) "10k-client faulty run identical at jobs=1 and jobs=4"
    true (seq = par)

let test_server_verdicts_deterministic_across_jobs () =
  let specs =
    List.map
      (fun (seed, algo) ->
        Experiments.Chaos.spec ~measured_commits:80
          ~fault:(Fault.Plan.server_default ~seed) algo)
      [ (1, Core.Proto.Two_phase Core.Proto.Inter); (2, Core.Proto.Callback) ]
  in
  let v1 = Experiments.Chaos.sweep ~jobs:1 specs in
  let v2 = Experiments.Chaos.sweep ~jobs:4 specs in
  Alcotest.(check bool) "jobs=1 and jobs=4 verdicts identical" true (v1 = v2)

(* Disable commit validation on a hot workload: the audit must catch the
   resulting non-serializable history, and shrinking must return an
   active plan that still fails. *)
let test_unsafe_violation_caught_and_shrunk () =
  let algo = Core.Proto.Certification Core.Proto.Inter in
  let failing_spec =
    (* seeds differ in when conflicts line up; scan a few for a violation *)
    let rec find = function
      | [] -> Alcotest.fail "no seed produced a violation on the hot workload"
      | seed :: rest ->
          let fault =
            {
              (Fault.Plan.default ~seed) with
              Fault.Plan.unsafe_skip_validation = true;
            }
          in
          let sp = quick_spec ~hot:true ~fault algo in
          let v = Experiments.Chaos.audit_run sp in
          if Experiments.Chaos.ok v then find rest
          else begin
            Alcotest.(check bool) "error names the cycle" true
              (List.exists
                 (fun e ->
                   String.length e >= 18
                   && String.sub e 0 18 = "non-serializable h")
                 v.Experiments.Chaos.v_errors);
            sp
          end
    in
    find [ 1; 2; 3; 4; 5 ]
  in
  let minimal = Experiments.Chaos.shrink ~max_steps:3 failing_spec in
  Alcotest.(check bool) "shrunk plan still active" true
    (Fault.Plan.active minimal);
  Alcotest.(check bool) "shrunk plan keeps the mutation" true
    minimal.Fault.Plan.unsafe_skip_validation;
  let v =
    Experiments.Chaos.audit_run
      { failing_spec with Core.Simulator.fault = minimal }
  in
  Alcotest.(check bool) "shrunk plan still fails" false
    (Experiments.Chaos.ok v)

(* ------------------------------------------------------------------ *)
(* Message accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* The network counts every message occurrence and emits its trace
   event at the same point, so over a whole-run window (no warmup reset)
   the fault counters equal the Msg_* trace entries.  A callback or
   notification is traced when the server decides it and counted when
   it is posted, so the counters can only trail the trace. *)
let test_counters_match_trace () =
  List.iter
    (fun (n_shards, algo) ->
      let label =
        Printf.sprintf "%s/%dshard" (Core.Proto.algorithm_name algo) n_shards
      in
      let spec =
        {
          (Experiments.Chaos.spec ~n_shards ~measured_commits:150
             ~fault:(Fault.Plan.default ~seed:3) algo)
          with
          Core.Simulator.obs = Obs.Config.trace_only;
        }
      in
      Alcotest.(check int) (label ^ " whole-run window") 0
        spec.Core.Simulator.warmup_commits;
      let r = Shard.Shard_sim.run spec in
      let rep = List.hd (Option.get r.Core.Simulator.obs).Obs.Run.reps in
      Alcotest.(check int) (label ^ " trace complete") 0 rep.Obs.Run.trace_dropped;
      let count p =
        Array.fold_left
          (fun a e -> if p e.Obs.Recorder.ev then a + 1 else a)
          0 rep.Obs.Run.trace
      in
      let open Obs.Event in
      let check what counted traced =
        Alcotest.(check int) (label ^ " " ^ what) traced counted
      in
      check "dropped" r.msgs_dropped
        (count (function Msg_dropped _ -> true | _ -> false));
      check "delayed" r.msgs_delayed
        (count (function Msg_delayed _ -> true | _ -> false));
      check "duplicated" r.msgs_duplicated
        (count (function Msg_duplicated _ -> true | _ -> false));
      Alcotest.(check bool) (label ^ " saw drops") true (r.msgs_dropped > 0);
      let callbacks = count (function Callback _ -> true | _ -> false)
      and notifies = count (function Notify _ -> true | _ -> false) in
      if r.callbacks_sent > callbacks then
        Alcotest.failf "%s: %d callbacks posted, %d traced" label
          r.callbacks_sent callbacks;
      if r.pushes_sent > notifies then
        Alcotest.failf "%s: %d pushes posted, %d traced" label r.pushes_sent
          notifies;
      Alcotest.(check bool) (label ^ " saw callbacks or pushes") true
        (r.callbacks_sent + r.pushes_sent > 0))
    Core.Proto.
      [
        (1, Callback);
        (4, Callback);
        (1, No_wait { notify = Some Push });
        (4, No_wait { notify = Some Invalidate });
      ]

let suites =
  [
    ( "plan",
      [
        case "none inactive" test_plan_none_inactive;
        case "default valid" test_plan_default_valid;
        case "validate rejects" test_plan_validate_rejects;
        case "shrink candidates" test_plan_shrink_candidates;
        case "injector deterministic" test_injector_deterministic;
        case "server plan defaults" test_server_plan_defaults;
        case "server plan validate rejects" test_server_plan_validate_rejects;
        case "server shrink golden order" test_server_shrink_golden;
        case "server stream deterministic" test_server_stream_deterministic;
      ] );
    ( "chaos",
      [
        case "fault-free run clean" test_faultfree_run_clean;
        case "all algorithms survive faults" test_all_algorithms_survive_faults;
        case "total loss is stuck, not duplication"
          test_total_loss_stuck_not_duplication;
        case "crashes recovered" test_crashes_recovered;
        case "verdicts deterministic across jobs"
          test_verdicts_deterministic_across_jobs;
        case "10k clients deterministic across jobs"
          test_large_population_deterministic_across_jobs;
        case "server faults audited" test_server_faults_audited;
        case "server verdicts deterministic across jobs"
          test_server_verdicts_deterministic_across_jobs;
        case "violation caught and shrunk"
          test_unsafe_violation_caught_and_shrunk;
      ] );
    ( "msgs",
      [ case "network counters match the trace" test_counters_match_trace ] );
  ]

let () = Alcotest.run "fault" suites
