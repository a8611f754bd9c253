(* Tests for the network manager (lib/net). *)

open Net

let case name f = Alcotest.test_case name `Quick f

let mk ?faults ?(net_delay = 0.002) ?(packet_size = 4096) () =
  let eng = Sim.Engine.create () in
  let prm = { Network.net_delay; packet_size; msg_inst = 5000 } in
  (eng, Network.create ?faults eng ~rng:(Sim.Rng.create 9) prm)

let test_packets_for () =
  let _, net = mk () in
  Alcotest.(check int) "0 bytes -> 1 packet" 1 (Network.packets_for net ~bytes:0);
  Alcotest.(check int) "1 byte" 1 (Network.packets_for net ~bytes:1);
  Alcotest.(check int) "exactly one page" 1 (Network.packets_for net ~bytes:4096);
  Alcotest.(check int) "one page + 1" 2 (Network.packets_for net ~bytes:4097);
  Alcotest.(check int) "three pages" 3 (Network.packets_for net ~bytes:12288)

let test_post_delivers () =
  let eng, net = mk () in
  let delivered_at = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:100 ~deliver:(fun _ ->
          delivered_at := Sim.Engine.now eng));
  ignore (Sim.Engine.run eng ());
  if !delivered_at <= 0.0 then Alcotest.fail "not delivered or zero delay";
  Alcotest.(check int) "one message" 1 (Network.messages_sent net);
  Alcotest.(check int) "one packet" 1 (Network.packets_sent net)

let test_post_sender_not_blocked () =
  let eng, net = mk () in
  let sender_done = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:100_000 ~deliver:(fun _ -> ());
      sender_done := Sim.Engine.now eng);
  ignore (Sim.Engine.run eng ());
  Alcotest.(check (float 0.0)) "sender returns immediately" 0.0 !sender_done

let test_zero_delay_instant () =
  let eng, net = mk ~net_delay:0.0 () in
  let delivered_at = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:20_000 ~deliver:(fun _ ->
          delivered_at := Sim.Engine.now eng));
  ignore (Sim.Engine.run eng ());
  Alcotest.(check (float 0.0)) "instant delivery" 0.0 !delivered_at;
  Alcotest.(check int) "packets still counted" 5 (Network.packets_sent net)

let test_fifo_wire () =
  (* the wire is FCFS at packet granularity: a 1-packet message posted just
     after a 10-packet message interleaves and is delivered first *)
  let eng, net = mk () in
  let order = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:40_960 ~deliver:(fun _ -> order := "big" :: !order);
      Network.post net ~bytes:1 ~deliver:(fun _ -> order := "small" :: !order));
  ignore (Sim.Engine.run eng ());
  Alcotest.(check (list string)) "packet interleaving" [ "small"; "big" ]
    (List.rev !order)

let test_utilization_counts () =
  let eng, net = mk () in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:4096 ~deliver:(fun _ -> ()));
  ignore (Sim.Engine.run eng ());
  (* the wire was busy the whole (non-zero) run *)
  let u = Network.utilization net in
  if u < 0.99 then Alcotest.failf "expected saturated wire, got %g" u;
  Network.reset_stats net;
  Alcotest.(check int) "reset messages" 0 (Network.messages_sent net)

let test_deliver_plain_event () =
  (* deliver runs as a plain event, not in a process: a deliver that must
     wait spawns its own process, and one that blocks in place fails *)
  let eng, net = mk () in
  let finished = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:1 ~deliver:(fun _ ->
          Sim.Engine.spawn eng (fun () ->
              Sim.Engine.hold 5.0;
              finished := Sim.Engine.now eng)));
  ignore (Sim.Engine.run eng ());
  if !finished < 5.0 then Alcotest.fail "spawned hold did not run";
  let eng, net = mk () in
  Network.post net ~bytes:1 ~deliver:(fun _ -> Sim.Engine.hold 5.0);
  match Sim.Engine.run eng () with
  | _ -> Alcotest.fail "a blocking deliver ran"
  | exception Effect.Unhandled _ -> ()

(* {2 Fault injection} *)

let injector plan = Fault.Injector.create { plan with Fault.Plan.seed = 21 }

let tag kind =
  {
    Obs.Causal.tg_parent = -1;
    tg_xid = 0;
    tg_owner = 0;
    tg_kind = kind;
    tg_src = Obs.Causal.Client 0;
    tg_dst = Obs.Causal.Shard 0;
    tg_retry = 0;
  }

(* Run [f] under a trace-only sink; return the Msg_* event names it
   recorded, in order. *)
let traced eng f =
  let sink = Obs.Sink.of_config (Obs.Config.make ~trace:true ()) in
  Obs.Sink.with_ sink (fun () ->
      f ();
      ignore (Sim.Engine.run eng ()));
  Option.get sink.Obs.Sink.trace
  |> Obs.Recorder.entries |> Array.to_list
  |> List.map (fun e -> e.Obs.Recorder.ev)

(* Three senders post a mix of sizes and kinds at staggered instants;
   returns every delivery as (time, sender, message index) in order. *)
let workload eng net =
  let log = ref [] in
  for s = 0 to 2 do
    Sim.Engine.spawn eng (fun () ->
        for k = 0 to 9 do
          Sim.Engine.hold (0.001 *. float_of_int ((s + k) mod 4));
          let bytes = [| 64; 4096; 9000; 300 |].((s * 7 + k) mod 4) in
          let kind = if k mod 3 = 0 then "fetch" else "commit" in
          Network.post ~tag:(tag kind) net ~bytes ~deliver:(fun _ ->
              log := (Sim.Engine.now eng, s, k) :: !log)
        done)
  done;
  ignore (Sim.Engine.run eng ());
  List.rev !log

let counters net =
  ( Network.messages_sent net,
    Network.packets_sent net,
    ( Network.messages_dropped net,
      Network.messages_delayed net,
      Network.messages_duplicated net ),
    Network.kind_stats net )

let test_quiet_injector_is_identity () =
  (* an injector whose plan faults nothing on the wire (client crashes
     only) must leave the network exactly as without one *)
  let eng0, net0 = mk () in
  let eng1, net1 =
    mk ~faults:(injector { Fault.Plan.none with crash_mean = 100.0 }) ()
  in
  let d0 = workload eng0 net0 and d1 = workload eng1 net1 in
  Alcotest.(check int) "30 deliveries" 30 (List.length d0);
  Alcotest.(check (list (triple (float 0.0) int int))) "same deliveries" d0 d1;
  Alcotest.(check bool) "same counters" true (counters net0 = counters net1);
  Alcotest.(check int) "same event count"
    (Sim.Engine.events_executed eng0) (Sim.Engine.events_executed eng1);
  Alcotest.(check (float 0.0)) "same wire busy time"
    (Network.busy_time net0) (Network.busy_time net1)

let test_drop () =
  let eng, net =
    mk ~faults:(injector { Fault.Plan.none with drop_prob = 1.0 }) ()
  in
  let delivered = ref 0 in
  let evs =
    traced eng (fun () ->
        for _ = 1 to 3 do
          Network.post ~tag:(tag "fetch") net ~bytes:5000 ~deliver:(fun _ ->
              incr delivered)
        done)
  in
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "posts counted" 3 (Network.messages_sent net);
  Alcotest.(check int) "drops counted" 3 (Network.messages_dropped net);
  Alcotest.(check int) "no packet on the wire" 0 (Network.packets_sent net);
  Alcotest.(check int) "Msg_dropped traced" 3
    (List.length
       (List.filter
          (function Obs.Event.Msg_dropped { bytes = 5000 } -> true | _ -> false)
          evs));
  match Network.kind_stats net with
  | [ ("fetch", ks) ] ->
      Alcotest.(check int) "kind posts" 3 ks.Network.ks_msgs;
      Alcotest.(check int) "kind packets" 0 ks.Network.ks_pkts
  | _ -> Alcotest.fail "expected one fetch row"

let test_duplicate () =
  let eng, net =
    mk ~faults:(injector { Fault.Plan.none with dup_prob = 1.0 }) ()
  in
  let delivered = ref 0 in
  let evs =
    traced eng (fun () ->
        Network.post ~tag:(tag "commit") net ~bytes:5000 ~deliver:(fun _ ->
            incr delivered))
  in
  Alcotest.(check int) "delivered twice" 2 !delivered;
  Alcotest.(check int) "one post" 1 (Network.messages_sent net);
  Alcotest.(check int) "one duplicated post" 1
    (Network.messages_duplicated net);
  Alcotest.(check int) "both copies' packets" 4 (Network.packets_sent net);
  Alcotest.(check bool) "Msg_duplicated traced" true
    (evs = [ Obs.Event.Msg_duplicated { bytes = 5000; copies = 2 } ]);
  match Network.kind_stats net with
  | [ ("commit", ks) ] ->
      Alcotest.(check int) "kind posts" 1 ks.Network.ks_msgs;
      Alcotest.(check int) "kind dups" 1 ks.Network.ks_dups
  | _ -> Alcotest.fail "expected one commit row"

let test_delay () =
  (* same wire stream as a quiet network, so the only difference in the
     delivery instant is the injected delay *)
  let deliver_once ?faults () =
    let eng, net = mk ?faults () in
    let at = ref nan in
    let evs =
      traced eng (fun () ->
          Network.post net ~bytes:100 ~deliver:(fun _ ->
              at := Sim.Engine.now eng))
    in
    (!at, evs, net)
  in
  let t0, _, _ = deliver_once () in
  let t1, evs, net =
    deliver_once
      ~faults:
        (injector
           { Fault.Plan.none with delay_prob = 1.0; delay_mean = 0.5 })
      ()
  in
  Alcotest.(check int) "one delayed post" 1 (Network.messages_delayed net);
  match evs with
  | [ Obs.Event.Msg_delayed { bytes = 100; by } ] ->
      if by <= 0.0 then Alcotest.fail "non-positive delay";
      Alcotest.(check (float 1e-12)) "later by the delay" (t0 +. by) t1
  | _ -> Alcotest.fail "expected exactly one Msg_delayed"

let test_reset_fault_counters () =
  let eng, net =
    mk ~faults:(injector { Fault.Plan.none with drop_prob = 1.0 }) ()
  in
  Sim.Engine.spawn eng (fun () ->
      Network.post net ~bytes:1 ~deliver:(fun _ -> ()));
  ignore (Sim.Engine.run eng ());
  Alcotest.(check int) "dropped" 1 (Network.messages_dropped net);
  Network.reset_stats net;
  Alcotest.(check int) "reset drops" 0 (Network.messages_dropped net)

(* Every copy of every post is a chain of events: posts from inside a
   process and from plain events, under drops, delays and duplicates,
   start no process. *)
let test_transfer_spawns_no_process () =
  let plan =
    {
      Fault.Plan.none with
      drop_prob = 0.2;
      dup_prob = 0.3;
      delay_prob = 0.3;
      delay_mean = 0.01;
    }
  in
  let eng, net = mk ~faults:(injector plan) () in
  let delivered = ref 0 in
  let post k =
    Network.post net ~bytes:[| 1; 5000; 9000 |].(k mod 3) ~deliver:(fun _ ->
        incr delivered)
  in
  Sim.Engine.spawn eng (fun () ->
      for k = 0 to 49 do
        post k;
        Sim.Engine.hold 0.001
      done);
  for k = 50 to 99 do
    Sim.Engine.schedule eng ~at:(0.0005 *. float_of_int k) (fun () -> post k)
  done;
  ignore (Sim.Engine.run eng ());
  Alcotest.(check int) "only the sender" 1 (Sim.Engine.processes_spawned eng);
  Alcotest.(check int) "every post counted" 100 (Network.messages_sent net);
  if Network.messages_dropped net = 0 || Network.messages_duplicated net = 0
     || Network.messages_delayed net = 0
  then Alcotest.fail "the plan injected no drop, duplicate or delay";
  Alcotest.(check int) "each transmitted copy delivered"
    (100 - Network.messages_dropped net + Network.messages_duplicated net)
    !delivered

let suites =
  [
    ( "network",
      [
        case "packets_for" test_packets_for;
        case "post delivers" test_post_delivers;
        case "sender not blocked" test_post_sender_not_blocked;
        case "zero delay instant" test_zero_delay_instant;
        case "wire is FCFS" test_fifo_wire;
        case "utilization" test_utilization_counts;
        case "deliver runs as a plain event" test_deliver_plain_event;
      ] );
    ( "faults",
      [
        case "quiet injector is the identity" test_quiet_injector_is_identity;
        case "drop" test_drop;
        case "duplicate" test_duplicate;
        case "delay" test_delay;
        case "reset zeroes fault counters" test_reset_fault_counters;
        case "a transfer spawns no process" test_transfer_spawns_no_process;
      ] );
  ]

let () = Alcotest.run "net" suites
