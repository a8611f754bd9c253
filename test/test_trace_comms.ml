(* Tests for protocol tracing (the trace channel of Obs.Sink), charged
   messaging (Core.Comms), and a few cross-cutting behaviours that need a
   full simulation to observe. *)

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_inactive_by_default () =
  Alcotest.(check bool) "inactive" false (Obs.Sink.trace_on ());
  (* emitting with no sink is a no-op *)
  Obs.Sink.emit 1.0 (Obs.Event.Disk_read { page = 3 })

(* Run [f] with a fresh recorder installed; its (time, event) pairs in
   emission order. *)
let recorded f =
  let r = Obs.Recorder.create () in
  Obs.Sink.with_ { Obs.Sink.none with Obs.Sink.trace = Some r } f;
  Array.to_list (Obs.Recorder.entries r)
  |> List.map (fun e -> (e.Obs.Recorder.time, e.Obs.Recorder.ev))

(* Every protocol variant, each with one [Commit] event per commit the
   server acknowledged. *)
let test_trace_sink_receives_events () =
  let cfg = Core.Sys_params.table5 ~n_clients:2 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 () in
  List.iter
    (fun algo ->
      let name = Core.Proto.algorithm_name algo ^ ": " in
      let spec =
        Core.Simulator.default_spec ~seed:4 ~warmup_commits:0
          ~measured_commits:10 ~cfg ~xact_params:xp algo
      in
      let events =
        recorded (fun () ->
            Alcotest.(check bool) (name ^ "active") true (Obs.Sink.trace_on ());
            ignore (Shard.Shard_sim.run spec))
      in
      let evs = List.map snd events in
      let count pred = List.length (List.filter pred evs) in
      let has pred = count pred > 0 in
      Alcotest.(check bool) (name ^ "client sends seen") true
        (has (function Obs.Event.Client_send _ -> true | _ -> false));
      Alcotest.(check bool) (name ^ "server replies seen") true
        (has (function Obs.Event.Server_reply _ -> true | _ -> false));
      Alcotest.(check bool) (name ^ "disk reads seen") true
        (has (function Obs.Event.Disk_read _ -> true | _ -> false));
      let acks =
        count (function
          | Obs.Event.Server_reply { what = "commit ok"; _ } -> true
          | _ -> false)
      in
      Alcotest.(check bool) (name ^ "commits acknowledged") true (acks >= 10);
      Alcotest.(check int) (name ^ "one commit event per acknowledged commit")
        acks
        (count (function Obs.Event.Commit _ -> true | _ -> false));
      (* timestamps are non-decreasing *)
      let times = List.map fst events in
      let rec mono = function
        | a :: b :: rest -> a <= b && mono (b :: rest)
        | _ -> true
      in
      Alcotest.(check bool) (name ^ "monotone timestamps") true (mono times))
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

let test_trace_callback_events () =
  let cfg = Core.Sys_params.table5 ~n_clients:4 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.75 () in
  let spec =
    Core.Simulator.default_spec ~seed:4 ~warmup_commits:0 ~measured_commits:80
      ~cfg ~xact_params:xp Core.Proto.Callback
  in
  let cbs =
    recorded (fun () -> ignore (Shard.Shard_sim.run spec))
    |> List.filter (function _, Obs.Event.Callback _ -> true | _ -> false)
  in
  Alcotest.(check bool) "callback requests traced" true (cbs <> [])

let test_trace_event_strings () =
  let open Obs.Event in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln = 0 || go 0
  in
  List.iter
    (fun (ev, frag) ->
      let s = to_string ev in
      if not (contains s frag) then
        Alcotest.failf "%S should mention %S" s frag)
    [
      (Client_send { client = 3; xid = 9; what = "x" }, "client 3");
      (Server_reply { client = 3; xid = 9; what = "y" }, "client 3");
      (Lock_wait { client = 1; page = 5; mode = "X" }, "page 5");
      (Lock_grant { client = 1; page = 5; mode = "S" }, "granted");
      (Deadlock { victim_client = 2; cycle = [ 1; 2 ] }, "victim is client 2");
      (Abort { client = 1; xid = 4; reason = "deadlock" }, "deadlock");
      (Callback { holder = 7; page = 2 }, "client 7");
      (Notify { client = 1; page = 2; push = true }, "push");
      (Notify { client = 1; page = 2; push = false }, "invalidation");
      (Commit { client = 0; xid = 1; n_updates = 2 }, "2 updated");
      (Disk_read { page = 11 }, "page 11");
    ]

(* ------------------------------------------------------------------ *)
(* Comms                                                               *)
(* ------------------------------------------------------------------ *)

let mk_ports eng =
  let src =
    { Core.Proto.cpu = Sim.Facility.create eng ~name:"src" (); mips = 1.0 }
  in
  let dst =
    { Core.Proto.cpu = Sim.Facility.create eng ~name:"dst" (); mips = 2.0 }
  in
  (src, dst)

let test_comms_charges_both_ends () =
  let eng = Sim.Engine.create () in
  let src, dst = mk_ports eng in
  let net =
    Net.Network.create eng ~rng:(Sim.Rng.create 3)
      { Net.Network.net_delay = 0.0; packet_size = 4096; msg_inst = 10_000 }
  in
  let delivered = ref false in
  Sim.Engine.spawn eng (fun () ->
      Core.Comms.send net ~msg_inst:10_000 ~src ~dst ~bytes:100
        ~deliver:(fun _ -> delivered := true));
  ignore (Sim.Engine.run eng ());
  Alcotest.(check bool) "delivered" true !delivered;
  (* 10k instructions: 10ms at 1 MIPS on src, 5ms at 2 MIPS on dst *)
  Alcotest.(check (float 1e-9)) "src busy" 0.01
    (Sim.Facility.total_service_time src.Core.Proto.cpu);
  Alcotest.(check (float 1e-9)) "dst busy" 0.005
    (Sim.Facility.total_service_time dst.Core.Proto.cpu)

let test_comms_multi_packet_scales_cpu () =
  let eng = Sim.Engine.create () in
  let src, dst = mk_ports eng in
  let net =
    Net.Network.create eng ~rng:(Sim.Rng.create 3)
      { Net.Network.net_delay = 0.0; packet_size = 4096; msg_inst = 1_000 }
  in
  Sim.Engine.spawn eng (fun () ->
      (* 3 packets *)
      Core.Comms.send net ~msg_inst:1_000 ~src ~dst ~bytes:(4096 * 3)
        ~deliver:(fun _ -> ()));
  ignore (Sim.Engine.run eng ());
  Alcotest.(check (float 1e-9)) "3 packets x 1ms" 0.003
    (Sim.Facility.total_service_time src.Core.Proto.cpu)

let test_comms_zero_cost_free () =
  let eng = Sim.Engine.create () in
  let src, dst = mk_ports eng in
  let net =
    Net.Network.create eng ~rng:(Sim.Rng.create 3)
      { Net.Network.net_delay = 0.0; packet_size = 4096; msg_inst = 0 }
  in
  let at = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Core.Comms.send net ~msg_inst:0 ~src ~dst ~bytes:4096 ~deliver:(fun _ ->
          at := Sim.Engine.now eng));
  ignore (Sim.Engine.run eng ());
  Alcotest.(check (float 0.0)) "instant with all costs zero" 0.0 !at

(* ------------------------------------------------------------------ *)
(* Cross-cutting simulation behaviours                                 *)
(* ------------------------------------------------------------------ *)

let test_interactive_defers_async_messages () =
  (* the paper's §5.5 implementation detail: a client defers callbacks
     that arrive during think time, and the run must still complete *)
  let cfg = Core.Sys_params.table5 ~n_clients:4 () in
  let xp = Db.Xact_params.interactive ~prob_write:0.5 ~inter_xact_loc:0.5 () in
  let spec =
    Core.Simulator.default_spec ~seed:6 ~warmup_commits:5 ~measured_commits:40
      ~cfg ~xact_params:xp Core.Proto.Callback
  in
  let r = Shard.Shard_sim.run spec in
  Alcotest.(check int) "completes" 40 r.Core.Simulator.commits

let test_tiny_cache_still_correct () =
  (* cache barely larger than one transaction: constant eviction traffic,
     including retained-lock releases under callback locking *)
  List.iter
    (fun algo ->
      let cfg =
        { (Core.Sys_params.table5 ~n_clients:5 ()) with Core.Sys_params.cache_size = 15 }
      in
      let xp = Db.Xact_params.short_batch ~prob_write:0.3 ~inter_xact_loc:0.6 () in
      let audit = Cc.History.create () in
      let spec =
        Core.Simulator.default_spec ~seed:8 ~warmup_commits:30
          ~measured_commits:250 ~cfg ~xact_params:xp algo
      in
      let r = Shard.Shard_sim.run ~audit spec in
      Alcotest.(check int)
        (Core.Proto.algorithm_name algo ^ " completes")
        250 r.Core.Simulator.commits;
      match Cc.History.check audit with
      | Cc.History.Serializable -> ()
      | Cc.History.Cycle _ ->
          Alcotest.failf "%s with tiny cache not serializable"
            (Core.Proto.algorithm_name algo))
    [
      Core.Proto.Two_phase Core.Proto.Inter;
      Core.Proto.Certification Core.Proto.Inter;
      Core.Proto.Callback;
      Core.Proto.No_wait { notify = Some Core.Proto.Push };
    ]

let test_single_client_never_conflicts () =
  List.iter
    (fun algo ->
      let cfg = Core.Sys_params.table5 ~n_clients:1 () in
      let xp = Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.5 () in
      let spec =
        Core.Simulator.default_spec ~seed:2 ~warmup_commits:10
          ~measured_commits:150 ~cfg ~xact_params:xp algo
      in
      let r = Shard.Shard_sim.run spec in
      Alcotest.(check int)
        (Core.Proto.algorithm_name algo ^ " aborts")
        0 r.Core.Simulator.aborts)
    [
      Core.Proto.Two_phase Core.Proto.Inter;
      Core.Proto.Certification Core.Proto.Inter;
      Core.Proto.Callback;
      Core.Proto.No_wait { notify = None };
    ]

let suites =
  [
    ( "trace",
      [
        case "inactive by default" test_trace_inactive_by_default;
        case "sink receives events" test_trace_sink_receives_events;
        case "callback events traced" test_trace_callback_events;
        case "event strings" test_trace_event_strings;
      ] );
    ( "comms",
      [
        case "charges both ends" test_comms_charges_both_ends;
        case "multi-packet CPU scaling" test_comms_multi_packet_scales_cpu;
        case "zero cost is free" test_comms_zero_cost_free;
      ] );
    ( "cross-cutting",
      [
        case "interactive async deferral" test_interactive_defers_async_messages;
        case "tiny cache correct" test_tiny_cache_still_correct;
        case "single client never aborts" test_single_client_never_conflicts;
      ] );
  ]

let () = Alcotest.run "trace-comms" suites
