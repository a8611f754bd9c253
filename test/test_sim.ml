(* Tests for the discrete-event simulation engine (lib/sim). *)

open Sim

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Engine basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_hold_advances_clock () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.spawn eng (fun () ->
      seen := (Engine.now eng, "start") :: !seen;
      Engine.hold 2.5;
      seen := (Engine.now eng, "mid") :: !seen;
      Engine.hold 1.5;
      seen := (Engine.now eng, "end") :: !seen);
  let final = Engine.run eng () in
  check_float "final clock" 4.0 final;
  match List.rev !seen with
  | [ (t0, "start"); (t1, "mid"); (t2, "end") ] ->
      check_float "t0" 0.0 t0;
      check_float "t1" 2.5 t1;
      check_float "t2" 4.0 t2
  | _ -> Alcotest.fail "wrong event trace"

let test_fifo_same_time () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng (fun () -> order := i :: !order)
  done;
  ignore (Engine.run eng ());
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        Engine.hold 1.0;
        incr hits
      done);
  let t = Engine.run eng ~until:4.5 () in
  check_float "stopped at limit" 4.5 t;
  Alcotest.(check int) "4 ticks before limit" 4 !hits;
  (* resuming runs the remaining events *)
  let t = Engine.run eng () in
  check_float "drained" 10.0 t;
  Alcotest.(check int) "all ticks" 10 !hits

let test_stop () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        Engine.hold 1.0;
        incr hits;
        if !hits = 3 then Engine.stop eng
      done);
  ignore (Engine.run eng ());
  Alcotest.(check int) "stopped after 3" 3 !hits

let test_spawn_at () =
  let eng = Engine.create () in
  let t_seen = ref (-1.0) in
  Engine.spawn eng ~at:7.0 (fun () -> t_seen := Engine.now eng);
  ignore (Engine.run eng ());
  check_float "delayed spawn" 7.0 !t_seen

let test_exit_process () =
  let eng = Engine.create () in
  let reached = ref false in
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      Engine.exit_process () |> ignore;
      reached := true);
  ignore (Engine.run eng ());
  Alcotest.(check bool) "code after exit not run" false !reached

let test_schedule_past_rejected () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.hold 5.0);
  ignore (Engine.run eng ());
  Alcotest.check_raises "past schedule"
    (Invalid_argument "Engine.schedule: at=1 is before now=5") (fun () ->
      Engine.schedule eng ~at:1.0 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      Mailbox.send mb "a";
      Mailbox.send mb "b";
      Engine.hold 1.0;
      Mailbox.send mb "c");
  ignore (Engine.run eng ());
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] (List.rev !got)

let test_mailbox_nonblocking () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  Engine.spawn eng (fun () ->
      Alcotest.(check (option int)) "empty" None (Mailbox.recv_opt mb);
      Mailbox.send mb 42;
      Alcotest.(check int) "pending" 1 (Mailbox.pending mb);
      Alcotest.(check (option int)) "pop" (Some 42) (Mailbox.recv_opt mb));
  ignore (Engine.run eng ())

let test_mailbox_recv_timeout_expires () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref (Some "sentinel") in
  let at = ref (-1.0) in
  Engine.spawn eng (fun () ->
      got := Mailbox.recv_timeout mb ~timeout:2.5;
      at := Engine.now eng);
  ignore (Engine.run eng ());
  Alcotest.(check (option string)) "timed out empty" None !got;
  check_float "resumed at the deadline" 2.5 !at

let test_mailbox_recv_timeout_delivers () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref None in
  let at = ref (-1.0) in
  Engine.spawn eng (fun () ->
      got := Mailbox.recv_timeout mb ~timeout:10.0;
      at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      Mailbox.send mb "msg");
  let drained_at = Engine.run eng () in
  Alcotest.(check (option string)) "message won the race" (Some "msg") !got;
  check_float "resumed at send time" 1.0 !at;
  (* the losing timer event still runs; it must be inert *)
  check_float "stale timer drains cleanly" 10.0 drained_at

let test_mailbox_stale_waiter_forwards_wake () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let first = ref (Some "sentinel") in
  let second = ref None in
  let second_at = ref (-1.0) in
  (* first receiver times out, leaving a tombstone in the blocked queue *)
  Engine.spawn eng (fun () -> first := Mailbox.recv_timeout mb ~timeout:1.0);
  (* second receiver blocks behind it, indefinitely *)
  Engine.spawn eng (fun () ->
      let v = Mailbox.recv mb in
      second := Some v;
      second_at := Engine.now eng);
  (* a send after the timeout pops the tombstone, which must forward the
     wake to the live waiter instead of swallowing it *)
  Engine.spawn eng (fun () ->
      Engine.hold 2.0;
      Mailbox.send mb "late");
  ignore (Engine.run eng ());
  Alcotest.(check (option string)) "first timed out" None !first;
  Alcotest.(check (option string)) "second got the message" (Some "late")
    !second;
  check_float "woken by the forwarded wake" 2.0 !second_at

let test_mailbox_wake_order_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        let v = Mailbox.recv mb in
        order := (i, v) :: !order)
  done;
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      Mailbox.send mb "a";
      Engine.hold 1.0;
      Mailbox.send mb "b";
      Engine.hold 1.0;
      Mailbox.send mb "c");
  ignore (Engine.run eng ());
  Alcotest.(check (list (pair int string)))
    "receivers woken in blocking order"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !order)

let test_mailbox_two_receivers () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  for i = 1 to 2 do
    Engine.spawn eng (fun () ->
        let v = Mailbox.recv mb in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      Mailbox.send mb "x";
      Mailbox.send mb "y");
  ignore (Engine.run eng ());
  Alcotest.(check int) "both received" 2 (List.length !got)

(* ---- served mailboxes ---- *)

let test_serve_no_process_until_send () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Mailbox.serve mb ~name:"consumer" (fun v -> got := (v, Engine.now eng) :: !got);
  ignore (Engine.run eng ());
  Alcotest.(check int) "nothing spawned" 0 (Engine.processes_spawned eng);
  Alcotest.(check int) "no event" 0 (Engine.events_executed eng);
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      Mailbox.send mb "a");
  ignore (Engine.run eng ());
  Alcotest.(check (list (pair string (float 0.0))))
    "handled at send time" [ ("a", 1.0) ] !got;
  Alcotest.(check int) "sender and one consumer" 2
    (Engine.processes_spawned eng);
  Alcotest.(check int) "consumer finished" 0 (Engine.live_processes eng)

let test_serve_one_spawn_while_busy () =
  let eng = Engine.create () in
  Engine.enable_profiling eng;
  let mb = Mailbox.create eng in
  let got = ref [] in
  Mailbox.serve mb ~name:"consumer" (fun v ->
      got := (v, Engine.now eng) :: !got;
      Engine.hold 1.0);
  Engine.spawn eng ~name:"sender" (fun () ->
      Mailbox.send mb "a";
      Engine.hold 0.5;
      Mailbox.send mb "b";
      Mailbox.send mb "c");
  ignore (Engine.run eng ());
  Alcotest.(check (list (pair string (float 0.0))))
    "queued behind the running consumer"
    [ ("a", 0.0); ("b", 1.0); ("c", 2.0) ]
    (List.rev !got);
  Alcotest.(check int) "one consumer for the burst" 2
    (Engine.processes_spawned eng);
  let p = Engine.profile eng in
  Alcotest.(check int) "sender and consumer live together" 2
    p.Engine.pr_live_hwm;
  (* spawn, three holds' resumptions *)
  Alcotest.(check int) "consumer events" 4
    (List.find (fun pp -> pp.Engine.pp_name = "consumer") p.Engine.pr_per_process)
      .Engine.pp_runs

let test_serve_send_from_consumer () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Mailbox.serve mb ~name:"consumer" (fun v ->
      got := v :: !got;
      if v = 1 then begin
        Mailbox.send mb 2;
        Mailbox.send mb 3
      end);
  Engine.spawn eng (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 4);
  ignore (Engine.run eng ());
  Alcotest.(check (list int)) "fifo, self-sends last" [ 1; 4; 2; 3 ]
    (List.rev !got);
  Alcotest.(check int) "sender and one consumer" 2
    (Engine.processes_spawned eng)

let test_serve_rejects_receivers () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  Mailbox.serve mb ~name:"consumer" ignore;
  Alcotest.check_raises "recv"
    (Invalid_argument "Mailbox.recv: the mailbox is served") (fun () ->
      ignore (Mailbox.recv mb));
  Alcotest.check_raises "recv_opt"
    (Invalid_argument "Mailbox.recv_opt: the mailbox is served") (fun () ->
      ignore (Mailbox.recv_opt mb));
  Alcotest.check_raises "recv_timeout"
    (Invalid_argument "Mailbox.recv_timeout: the mailbox is served")
    (fun () -> ignore (Mailbox.recv_timeout mb ~timeout:1.0));
  Alcotest.check_raises "served twice"
    (Invalid_argument "Mailbox.serve: mailbox in use") (fun () ->
      Mailbox.serve mb ~name:"again" ignore)

(* A served consumer is a [recv] loop without the loop's start event: for
   any send schedule both handle the same values at the same instants in
   the same order, and the loop executes exactly one event more.  Senders
   hold multiples of 0.5 (zero included), so same-instant sends and sends
   that land while the consumer is busy are common; the consumer holds a
   per-value service time, some of them zero. *)
let gen_sends =
  let open QCheck.Gen in
  let time = map (fun k -> 0.5 *. float_of_int k) (int_range 0 3) in
  pair
    (list_size (int_range 1 3)
       (list_size (int_range 0 6) (pair time (int_range 1 3))))
    (array_size (return 16) time)

let run_consumer ~served (senders, service) =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let log = ref [] in
  let f v =
    log := (v, Engine.now eng) :: !log;
    Engine.hold service.(v land 15)
  in
  if served then Mailbox.serve mb ~name:"consumer" f
  else
    Engine.spawn eng (fun () ->
        let rec loop () =
          f (Mailbox.recv mb);
          loop ()
        in
        loop ());
  let next = ref 0 in
  List.iter
    (fun script ->
      Engine.spawn eng (fun () ->
          List.iter
            (fun (gap, k) ->
              Engine.hold gap;
              for _ = 1 to k do
                incr next;
                Mailbox.send mb !next
              done)
            script))
    senders;
  ignore (Engine.run eng ());
  (List.rev !log, Engine.events_executed eng)

let prop_serve_matches_recv_loop =
  QCheck.Test.make ~name:"served consumer matches a recv loop" ~count:300
    (QCheck.make gen_sends) (fun sends ->
      let served, served_events = run_consumer ~served:true sends in
      let looped, looped_events = run_consumer ~served:false sends in
      if served <> looped then
        QCheck.Test.fail_report "handled values or instants differ";
      if looped_events - served_events <> 1 then
        QCheck.Test.fail_reportf "events: loop %d, served %d" looped_events
          served_events;
      true)

(* ------------------------------------------------------------------ *)
(* Facility                                                            *)
(* ------------------------------------------------------------------ *)

let test_facility_serializes () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"cpu" () in
  let finish = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Facility.use fac 2.0;
        finish := (i, Engine.now eng) :: !finish)
  done;
  ignore (Engine.run eng ());
  match List.rev !finish with
  | [ (1, t1); (2, t2); (3, t3) ] ->
      check_float "first done" 2.0 t1;
      check_float "second done" 4.0 t2;
      check_float "third done" 6.0 t3
  | _ -> Alcotest.fail "wrong completion order"

let test_facility_parallel_units () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"disks" ~capacity:2 () in
  let finish = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng (fun () ->
        Facility.use fac 3.0;
        finish := (i, Engine.now eng) :: !finish)
  done;
  ignore (Engine.run eng ());
  let times = List.rev_map snd !finish in
  Alcotest.(check int) "all done" 4 (List.length times);
  (match times with
  | [ a; b; c; d ] ->
      check_float "pair 1" 3.0 a;
      check_float "pair 1b" 3.0 b;
      check_float "pair 2" 6.0 c;
      check_float "pair 2b" 6.0 d
  | _ -> Alcotest.fail "wrong count");
  Alcotest.(check int) "completions" 4 (Facility.completions fac)

let test_facility_utilization () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"cpu" () in
  Engine.spawn eng (fun () ->
      Facility.use fac 4.0;
      Engine.hold 4.0)
  (* busy 4 of 8 seconds -> utilization 0.5 *);
  ignore (Engine.run eng ());
  check_float "utilization" 0.5 (Facility.utilization fac);
  check_float "service time" 4.0 (Facility.total_service_time fac)

let test_facility_queue_stats () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"cpu" () in
  for _ = 1 to 2 do
    Engine.spawn eng (fun () -> Facility.use fac 5.0)
  done;
  ignore (Engine.run eng ());
  (* second process queues for 5 s of the 10 s run: mean queue len 0.5 *)
  check_float "mean queue length" 0.5 (Facility.mean_queue_length fac);
  check_float "full utilization" 1.0 (Facility.utilization fac)

let test_facility_reset_stats () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"cpu" () in
  Engine.spawn eng (fun () ->
      Facility.use fac 2.0;
      Facility.reset_stats fac;
      Engine.hold 2.0);
  ignore (Engine.run eng ());
  check_float "utilization after reset" 0.0 (Facility.utilization fac);
  Alcotest.(check int) "completions after reset" 0 (Facility.completions fac)

(* One facility under a list of requests (service time, arrival instant,
   whether it arrives as a [submit] callback or as a process calling
   [use]); returns the completions as (request, instant) in order, the
   window's statistics and the event count. *)
let run_facility requests =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"f" () in
  let order = ref [] in
  let record i () = order := (i, Engine.now eng) :: !order in
  List.iteri
    (fun i (s, at, submit) ->
      if submit then
        Engine.schedule eng ~at (fun () ->
            Facility.submit fac ~service:s (record i))
      else
        Engine.spawn eng ~at (fun () ->
            Facility.use fac s;
            record i ()))
    requests;
  let stop = Engine.run eng () in
  let stats =
    ( Facility.utilization fac,
      Facility.mean_queue_length fac,
      Facility.max_queue_length fac,
      Facility.busy_time fac,
      Facility.completions fac )
  in
  (List.rev !order, stats, stop, Engine.events_executed eng)

(* Arrivals on a 0.5 grid, so requests often arrive together and queue.
   The all-[use] run must complete FCFS — in (arrival, index) order — and
   any mix of [submit] and [use] must complete exactly as it does, with
   the same statistics and the same number of events. *)
let prop_facility_fcfs =
  QCheck.Test.make
    ~name:"facility completes FCFS for random service times, by use or submit"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 20)
        (triple (float_range 0.1 5.0)
           (map (fun k -> 0.5 *. float_of_int k) (int_range 0 6))
           bool))
    (fun requests ->
      let all_use = List.map (fun (s, at, _) -> (s, at, false)) requests in
      let ((order, _, _, _) as expected) = run_facility all_use in
      let fcfs =
        List.mapi (fun i (_, at, _) -> (at, i)) requests
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        |> List.map snd
      in
      if List.map fst order <> fcfs then
        QCheck.Test.fail_report "use does not complete FCFS";
      if run_facility requests <> expected then
        QCheck.Test.fail_report "submit and use differ";
      true)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let master = Rng.create 7 in
  let a = Rng.split master "alpha" and b = Rng.split master "beta" in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b);
  let a' = Rng.split master "alpha" in
  Alcotest.(check int64) "split reproducible" (Rng.bits64 (Rng.split master "alpha")) (Rng.bits64 a');
  ignore a'

let test_rng_ranges () =
  let r = Rng.create 1 in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %g" f;
    let i = Rng.uniform_int r 3 9 in
    if i < 3 || i > 9 then Alcotest.failf "int out of range: %d" i;
    let e = Rng.exponential r ~mean:2.0 in
    if e < 0.0 then Alcotest.failf "negative exponential: %g" e
  done

let test_rng_exponential_mean () =
  let r = Rng.create 123 in
  let s = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add s (Rng.exponential r ~mean:3.0)
  done;
  let m = Stats.mean s in
  if Float.abs (m -. 3.0) > 0.05 then
    Alcotest.failf "exponential mean off: %g" m

let test_rng_bernoulli_rate () =
  let r = Rng.create 99 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if Float.abs (rate -. 0.25) > 0.01 then Alcotest.failf "bernoulli rate %g" rate

let test_rng_zero_mean_exponential () =
  let r = Rng.create 5 in
  check_float "zero mean -> zero" 0.0 (Rng.exponential r ~mean:0.0)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "total" 10.0 (Stats.total s);
  check_float "min" 1.0 (Stats.min_value s);
  check_float "max" 4.0 (Stats.max_value s);
  check_float ~eps:1e-9 "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  check_float "mean" 0.0 (Stats.mean s);
  check_float "variance" 0.0 (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  List.iter
    (fun x ->
      Stats.add all x;
      if x < 3.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let m = Stats.merge a b in
  check_float "merged mean" (Stats.mean all) (Stats.mean m);
  check_float ~eps:1e-9 "merged variance" (Stats.variance all) (Stats.variance m);
  Alcotest.(check int) "merged count" 5 (Stats.count m)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"welford mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.incr c ~by:5;
  Alcotest.(check int) "value" 6 (Stats.Counter.value c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.value c)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let case name f = Alcotest.test_case name `Quick f


(* ------------------------------------------------------------------ *)
(* Stats.Samples                                                       *)
(* ------------------------------------------------------------------ *)

let test_samples_quantiles () =
  let s = Stats.Samples.create () in
  List.iter (Stats.Samples.add s) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check_float "min" 1.0 (Stats.Samples.quantile s 0.0);
  check_float "median" 3.0 (Stats.Samples.quantile s 0.5);
  check_float "max" 5.0 (Stats.Samples.quantile s 1.0);
  check_float "interpolated p25" 2.0 (Stats.Samples.quantile s 0.25);
  Alcotest.(check int) "count" 5 (Stats.Samples.count s)

let test_samples_empty_and_reset () =
  let s = Stats.Samples.create () in
  check_float "empty quantile" 0.0 (Stats.Samples.quantile s 0.5);
  Stats.Samples.add s 7.0;
  Stats.Samples.reset s;
  Alcotest.(check int) "reset" 0 (Stats.Samples.count s)

let test_samples_capacity () =
  let s = Stats.Samples.create ~capacity:3 () in
  List.iter (Stats.Samples.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "capped" 3 (Stats.Samples.count s)

let test_samples_add_after_quantile () =
  let s = Stats.Samples.create () in
  List.iter (Stats.Samples.add s) [ 3.0; 1.0 ];
  check_float "median of two" 2.0 (Stats.Samples.quantile s 0.5);
  Stats.Samples.add s 2.0;
  check_float "median of three" 2.0 (Stats.Samples.quantile s 0.5);
  check_float "max updated" 3.0 (Stats.Samples.quantile s 1.0)

let prop_samples_median_between_min_max =
  QCheck.Test.make ~name:"quantiles are monotone and bounded" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range (-50.) 50.))
    (fun xs ->
      let s = Stats.Samples.create () in
      List.iter (Stats.Samples.add s) xs;
      let q25 = Stats.Samples.quantile s 0.25 in
      let q50 = Stats.Samples.quantile s 0.5 in
      let q75 = Stats.Samples.quantile s 0.75 in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      lo <= q25 && q25 <= q50 && q50 <= q75 && q75 <= hi)

let test_engine_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Engine.hold 1.0;
      failwith "boom");
  Alcotest.check_raises "process exception escapes run" (Failure "boom")
    (fun () -> ignore (Engine.run eng ()))

let test_engine_counts () =
  let eng = Engine.create () in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () -> Engine.hold 1.0)
  done;
  ignore (Engine.run eng ());
  Alcotest.(check int) "spawned" 3 (Engine.processes_spawned eng);
  (* each process: one spawn event + one resume after hold *)
  Alcotest.(check int) "events" 6 (Engine.events_executed eng)

let test_hold_negative_rejected () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.hold (-1.0));
  Alcotest.check_raises "negative hold" (Invalid_argument "Engine.hold: negative")
    (fun () -> ignore (Engine.run eng ()))

(* A NaN hold used to be accepted: [Float.compare] sorted the event first,
   so the process ran "at nan" ahead of one holding 5.0, and the clock
   became NaN. *)
let test_hold_nan_rejected () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.spawn eng (fun () ->
      Engine.hold 5.0;
      seen := Printf.sprintf "B at %g" (Engine.now eng) :: !seen);
  Engine.spawn eng (fun () ->
      Engine.hold Float.nan;
      seen := Printf.sprintf "A at %g" (Engine.now eng) :: !seen);
  Alcotest.check_raises "NaN hold" (Invalid_argument "Engine.hold: NaN")
    (fun () -> ignore (Engine.run eng ()));
  Alcotest.(check (list string)) "nothing ran at NaN" [] !seen;
  check_float "clock stays a number" 0.0 (Engine.now eng)

let test_schedule_nan_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "NaN schedule"
    (Invalid_argument "Engine.schedule: at is NaN") (fun () ->
      Engine.schedule eng ~at:Float.nan (fun () -> ()));
  Alcotest.check_raises "NaN spawn"
    (Invalid_argument "Engine.schedule: at is NaN") (fun () ->
      Engine.spawn eng ~at:Float.nan (fun () -> ()));
  Alcotest.(check int) "nothing pending" 0 (Engine.profile eng).Engine.pr_heap_hwm

(* ------------------------------------------------------------------ *)
(* Event order: differential test against a reference queue            *)
(* ------------------------------------------------------------------ *)

(* A random program is a set of process scripts plus a sequence of [run]
   calls.  It executes once on the engine and once on a reference that
   keeps pending events in one list sorted by (time, seq) — the order the
   engine promises.  Times are multiples of 0.5, so equal-time ties, zero
   holds and [~until] landing exactly on an event are common; [~until]
   may also lie behind the clock, which moves it back. *)
type step =
  | Hold of float
  | Spawn of float option * step list  (** child at now or now + offset *)
  | Schedule of float  (** plain callback at now + offset *)
  | Suspend  (** block until some process runs [Wake_all] *)
  | Wake_all  (** resume every blocked process, at this instant *)
  | Stop

type program = {
  procs : (float option * step list) list;  (** spawned before the first run *)
  runs : float option list;  (** [run ?until] calls, then one final [run ()] *)
}

let rec pp_step = function
  | Hold d -> Printf.sprintf "Hold %g" d
  | Spawn (at, s) ->
      Printf.sprintf "Spawn(%s, %s)"
        (match at with None -> "now" | Some o -> Printf.sprintf "+%g" o)
        (pp_script s)
  | Schedule o -> Printf.sprintf "Schedule +%g" o
  | Suspend -> "Suspend"
  | Wake_all -> "Wake_all"
  | Stop -> "Stop"

and pp_script s = "[" ^ String.concat "; " (List.map pp_step s) ^ "]"

let pp_program p =
  Printf.sprintf "procs=[%s] runs=[%s]"
    (String.concat "; "
       (List.map
          (fun (at, s) ->
            Printf.sprintf "%s %s"
              (match at with None -> "now" | Some t -> Printf.sprintf "@%g" t)
              (pp_script s))
          p.procs))
    (String.concat "; "
       (List.map
          (function None -> "run" | Some u -> Printf.sprintf "until %g" u)
          p.runs))

let gen_program =
  let open QCheck.Gen in
  let time = map (fun k -> 0.5 *. float_of_int k) (int_range 0 4) in
  let hold = oneof [ return 0.0; time ] in
  let rec script depth =
    list_size (int_range 0 6)
      (frequency
         ([
            (4, map (fun d -> Hold d) hold);
            (2, map (fun o -> Schedule o) hold);
            (2, return Suspend);
            (2, return Wake_all);
            (1, return Stop);
          ]
         @
         if depth = 0 then []
         else [ (2, map2 (fun at s -> Spawn (at, s)) (opt hold) (script (depth - 1))) ]))
  in
  map2
    (fun procs runs -> { procs; runs })
    (list_size (int_range 1 4) (pair (opt time) (script 2)))
    (list_size (int_range 0 4) (opt (map (fun k -> 0.5 *. float_of_int k) (int_range 0 12))))

(* Programs that keep more than 32 events pending: at least 33 processes
   start at a positive time, so the heap grows past its first 16 and 32
   entries, reuses the slots its pops free, and — with [Stop] leaving
   the ring full and [~until] behind the clock — spills the ring. *)
let gen_wide_program =
  let open QCheck.Gen in
  let time = map (fun k -> 0.5 *. float_of_int k) (int_range 0 8) in
  let later = map (fun k -> 0.5 *. float_of_int k) (int_range 1 8) in
  let hold = oneof [ return 0.0; time ] in
  let script =
    list_size (int_range 2 10)
      (frequency
         [
           (5, map (fun d -> Hold d) hold);
           (3, map (fun o -> Schedule o) hold);
           (1, map2 (fun at s -> Spawn (at, s)) (opt hold)
                 (list_size (int_range 0 3) (map (fun d -> Hold d) hold)));
           (1, return Suspend);
           (1, return Wake_all);
           (1, return Stop);
         ])
  in
  map3
    (fun late early runs -> { procs = late @ early; runs })
    (list_size (int_range 33 64) (pair (map Option.some later) script))
    (list_size (int_range 0 8) (pair (return None) script))
    (list_size (int_range 0 6)
       (opt (map (fun k -> 0.5 *. float_of_int k) (int_range 0 24))))

(* An observation: who ran (process or callback id, step index; -1 marks a
   script's end) and at what time; under profiling, the engine's
   per-process rows as (name, runs, holds). *)
type trace = {
  log : (int * int * float) list;
  clocks : float list;  (** what each [run] returned *)
  hwm : int;
  rows : (string * int * int) list;
}

let sorted_rows rows = List.sort compare rows

(* Every process is named after its id, so each event is attributed to the
   process whose step it runs, and a plain callback to its scheduler. *)
let run_engine ?(profiling = false) p =
  let eng = Engine.create () in
  if profiling then Engine.enable_profiling eng;
  let log = ref [] and ids = ref 0 and blocked = ref [] in
  let note id i = log := (id, i, Engine.now eng) :: !log in
  let fresh () = incr ids; !ids in
  let rec spawn_proc at steps =
    let id = fresh () in
    Engine.spawn eng ?at ~name:(Printf.sprintf "p%d" id) (fun () ->
        List.iteri
          (fun i step ->
            note id i;
            match step with
            | Hold d -> Engine.hold d
            | Spawn (o, s) ->
                spawn_proc (Option.map (fun o -> Engine.now eng +. o) o) s
            | Schedule o ->
                let cid = fresh () in
                Engine.schedule eng ~at:(Engine.now eng +. o) (fun () -> note cid 0)
            | Suspend -> Engine.suspend (fun r -> blocked := r :: !blocked)
            | Wake_all ->
                let rs = List.rev !blocked in
                blocked := [];
                List.iter (fun r -> r ()) rs
            | Stop -> Engine.stop eng)
          steps;
        note id (-1))
  in
  List.iter (fun (at, s) -> spawn_proc at s) p.procs;
  let clocks =
    List.map (fun until -> Engine.run eng ?until ()) (p.runs @ [ None ])
  in
  let prof = Engine.profile eng in
  {
    log = List.rev !log;
    clocks;
    hwm = prof.Engine.pr_heap_hwm;
    rows =
      sorted_rows
        (List.map
           (fun pp -> Engine.(pp.pp_name, pp.pp_runs, pp.pp_holds))
           prof.Engine.pr_per_process);
  }

(* The reference: the same semantics in continuation-passing style over a
   list sorted by (time, seq); each event carries the name it is
   attributed to. *)
let run_reference p =
  let clock = ref 0.0 and seq = ref 0 and pending = ref [] and hwm = ref 0 in
  let stopping = ref false in
  let log = ref [] and ids = ref 0 and blocked = ref [] in
  let runs = Hashtbl.create 16 and holds = Hashtbl.create 16 in
  let bump tbl name =
    Hashtbl.replace tbl name (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0)
  in
  let note id i = log := (id, i, !clock) :: !log in
  let fresh () = incr ids; !ids in
  let schedule owner at fn =
    incr seq;
    let ev = (at, !seq, (owner, fn)) in
    let rec insert = function
      | ((t, s, _) as e) :: rest when compare (t, s) (at, !seq) < 0 -> e :: insert rest
      | rest -> ev :: rest
    in
    pending := insert !pending;
    hwm := max !hwm (List.length !pending)
  in
  let rec resume name id i steps =
    match steps with
    | [] -> note id (-1)
    | step :: rest -> (
        note id i;
        let next () = resume name id (i + 1) rest in
        match step with
        | Hold d ->
            bump holds name;
            schedule name (!clock +. d) next
        | Spawn (o, s) ->
            spawn_proc (match o with None -> !clock | Some o -> !clock +. o) s;
            next ()
        | Schedule o ->
            let cid = fresh () in
            schedule name (!clock +. o) (fun () -> note cid 0);
            next ()
        | Suspend -> blocked := (fun () -> schedule name !clock next) :: !blocked
        | Wake_all ->
            let rs = List.rev !blocked in
            blocked := [];
            List.iter (fun r -> r ()) rs;
            next ()
        | Stop ->
            stopping := true;
            next ())
  and spawn_proc at steps =
    let id = fresh () in
    let name = Printf.sprintf "p%d" id in
    schedule name at (fun () -> resume name id 0 steps)
  in
  List.iter
    (fun (at, s) -> spawn_proc (Option.value at ~default:!clock) s)
    p.procs;
  let run until =
    let limit = Option.value until ~default:Float.infinity in
    stopping := false;
    let rec loop () =
      if not !stopping then
        match !pending with
        | [] -> ()
        | (t, _, _) :: _ when t > limit -> clock := limit
        | (t, _, (owner, fn)) :: rest ->
            pending := rest;
            clock := t;
            bump runs owner;
            fn ();
            loop ()
    in
    loop ();
    !clock
  in
  let clocks = List.map run (p.runs @ [ None ]) in
  let rows =
    Hashtbl.fold
      (fun name n acc ->
        (name, n, Option.value (Hashtbl.find_opt holds name) ~default:0) :: acc)
      runs []
  in
  { log = List.rev !log; clocks; hwm = !hwm; rows = sorted_rows rows }

let check_against_reference ?profiling p =
  let e = run_engine ?profiling p and r = run_reference p in
  if e.log <> r.log then QCheck.Test.fail_report "execution order differs";
  if e.clocks <> r.clocks then QCheck.Test.fail_report "run clocks differ";
  if e.hwm <> r.hwm then
    QCheck.Test.fail_reportf "pending high-water %d, reference %d" e.hwm r.hwm;
  (match profiling with
  | Some true when e.rows <> r.rows ->
      QCheck.Test.fail_report "per-process rows differ"
  | Some true | Some false | None -> ());
  r

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine order matches reference"
    ~count:500
    (QCheck.make ~print:pp_program gen_program)
    (fun p ->
      ignore (check_against_reference p);
      true)

let prop_engine_deep_heap_matches_reference =
  QCheck.Test.make ~name:"engine order matches reference past 32 pending"
    ~count:200
    (QCheck.make ~print:pp_program gen_wide_program)
    (fun p ->
      let r = check_against_reference p in
      if r.hwm <= 32 then
        QCheck.Test.fail_reportf "only %d events pending at most" r.hwm;
      true)

(* Profiling records owners beside the events; it must not move them, and
   every executed event must land on its process's row. *)
let prop_engine_profiled_matches_reference =
  QCheck.Test.make ~name:"profiled engine order and rows match reference"
    ~count:200
    (QCheck.make ~print:pp_program
       (QCheck.Gen.oneof [ gen_program; gen_wide_program ]))
    (fun p ->
      ignore (check_against_reference ~profiling:true p);
      true)

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let test_profile_global_counters () =
  let eng = Engine.create () in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Engine.hold 1.0;
        Engine.hold 1.0)
  done;
  ignore (Engine.run eng ());
  let p = Engine.profile eng in
  Alcotest.(check int) "events" (Engine.events_executed eng)
    p.Engine.pr_events;
  Alcotest.(check int) "spawned" 4 p.Engine.pr_spawned;
  Alcotest.(check int) "holds" 8 p.Engine.pr_holds;
  (* all four spawn events are pending before any runs *)
  Alcotest.(check int) "pending-event high-water" 4 p.Engine.pr_heap_hwm;
  (* per-process attribution is off unless enabled *)
  Alcotest.(check int) "no per-process rows" 0
    (List.length p.Engine.pr_per_process)

let test_profile_per_process () =
  let eng = Engine.create () in
  Engine.enable_profiling eng;
  Engine.spawn eng ~name:"busy" (fun () ->
      for _ = 1 to 5 do
        Engine.hold 2.0
      done);
  Engine.spawn eng ~name:"idle" (fun () -> Engine.hold 1.0);
  ignore (Engine.run eng ());
  let p = Engine.profile eng in
  let find n =
    List.find (fun pp -> pp.Engine.pp_name = n) p.Engine.pr_per_process
  in
  let busy = find "busy" and idle = find "idle" in
  (* sorted by runs descending: busy first *)
  Alcotest.(check string) "hottest first" "busy"
    (List.hd p.Engine.pr_per_process).Engine.pp_name;
  Alcotest.(check int) "busy holds" 5 busy.Engine.pp_holds;
  check_float "busy hold time" 10.0 busy.Engine.pp_hold_time;
  Alcotest.(check int) "idle holds" 1 idle.Engine.pp_holds;
  Alcotest.(check int) "busy events" 6 busy.Engine.pp_runs

let test_profile_name_inherited () =
  (* a process spawned without a name is attributed to its spawner *)
  let eng = Engine.create () in
  Engine.enable_profiling eng;
  Engine.spawn eng ~name:"parent" (fun () ->
      Engine.spawn eng (fun () -> Engine.hold 1.0);
      Engine.hold 3.0);
  ignore (Engine.run eng ());
  let p = Engine.profile eng in
  Alcotest.(check int) "one name" 1 (List.length p.Engine.pr_per_process);
  let pp = List.hd p.Engine.pr_per_process in
  Alcotest.(check string) "parent owns all" "parent" pp.Engine.pp_name;
  Alcotest.(check int) "both holds counted" 2 pp.Engine.pp_holds

(* A process is live from its first event to its return (or
   [exit_process]); a spawn for a later time is only a pending event. *)
let test_live_processes () =
  let eng = Engine.create () in
  let seen = ref [] in
  let probe () = seen := Engine.live_processes eng :: !seen in
  Engine.spawn eng (fun () ->
      probe ();
      Engine.spawn eng ~at:5.0 probe;
      Engine.hold 1.0;
      probe ());
  Engine.spawn eng (fun () ->
      probe ();
      Engine.exit_process ());
  ignore (Engine.run eng ());
  Alcotest.(check (list int)) "live at each probe" [ 1; 2; 1; 1 ]
    (List.rev !seen);
  Alcotest.(check int) "all finished" 0 (Engine.live_processes eng);
  Alcotest.(check int) "high-water" 2 (Engine.profile eng).Engine.pr_live_hwm

let test_facility_high_water_and_busy () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"cpu" () in
  for _ = 1 to 5 do
    Engine.spawn eng (fun () -> Facility.use fac 2.0)
  done;
  ignore (Engine.run eng ());
  (* first process serves immediately; the other four queue behind it *)
  Alcotest.(check int) "max queue" 4 (Facility.max_queue_length fac);
  check_float "busy time" 10.0 (Facility.busy_time fac);
  Facility.reset_stats fac;
  Alcotest.(check int) "max queue reset" 0 (Facility.max_queue_length fac);
  check_float "busy reset" 0.0 (Facility.busy_time fac)

let test_facility_busy_time_accrues_mid_service () =
  let eng = Engine.create () in
  let fac = Facility.create eng ~name:"cpu" () in
  Engine.spawn eng (fun () -> Facility.use fac 10.0);
  Engine.spawn eng (fun () ->
      Engine.hold 4.0;
      (* half-way through the service, busy time is already accounted *)
      check_float "mid-service busy" 4.0 (Facility.busy_time fac));
  ignore (Engine.run eng ())

(* ------------------------------------------------------------------ *)
(* Samples.merge                                                       *)
(* ------------------------------------------------------------------ *)

let test_samples_merge_exact_quantiles () =
  let a = Stats.Samples.create () and b = Stats.Samples.create () in
  let all = Stats.Samples.create () in
  let xs = [ 9.0; 1.0; 4.0; 7.0 ] and ys = [ 2.0; 8.0; 3.0; 6.0; 5.0 ] in
  List.iter (Stats.Samples.add a) xs;
  List.iter (Stats.Samples.add b) ys;
  List.iter (Stats.Samples.add all) (xs @ ys);
  (* sorting [a] first must not change what merge sees *)
  ignore (Stats.Samples.quantile a 0.5);
  let m = Stats.Samples.merge a b in
  Alcotest.(check int) "count" 9 (Stats.Samples.count m);
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "q=%g" q)
        (Stats.Samples.quantile all q)
        (Stats.Samples.quantile m q))
    [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ]

let test_samples_merge_empty () =
  let a = Stats.Samples.create () and b = Stats.Samples.create () in
  Stats.Samples.add b 3.0;
  let m = Stats.Samples.merge a b in
  Alcotest.(check int) "count" 1 (Stats.Samples.count m);
  check_float "median" 3.0 (Stats.Samples.quantile m 0.5)

(* ------------------------------------------------------------------ *)
(* Rng.int uniformity                                                  *)
(* ------------------------------------------------------------------ *)

(* The float-scaling implementation mapped 53 mantissa bits onto the range,
   so for n = 2^60 every result had its low ~7 bits zero: bucketing by the
   low 4 bits put 100% of the mass in bucket 0.  The rejection sampler must
   fill every low-bit bucket evenly. *)
let test_rng_int_large_bound_low_bits () =
  let r = Rng.create 7 in
  let n = 1 lsl 60 in
  let draws = 20_000 in
  let buckets = Array.make 16 0 in
  for _ = 1 to draws do
    let x = Rng.int r n in
    if x < 0 || x >= n then Alcotest.failf "out of range: %d" x;
    buckets.(x land 15) <- buckets.(x land 15) + 1
  done;
  let expect = float_of_int draws /. 16.0 in
  Array.iteri
    (fun i c ->
      let err = Float.abs (float_of_int c -. expect) /. expect in
      if err > 0.15 then
        Alcotest.failf "low-bit bucket %d off by %.0f%% (%d draws)" i
          (100.0 *. err) c)
    buckets

let prop_rng_int_bucket_frequency =
  QCheck.Test.make ~name:"Rng.int per-bucket frequency error bounded" ~count:25
    QCheck.(pair (int_range 16 (1 lsl 55)) (int_range 0 1000))
    (fun (n, seed) ->
      let r = Rng.create seed in
      let k = 8 in
      let draws = 8_000 in
      let buckets = Array.make k 0 in
      for _ = 1 to draws do
        let x = Rng.int r n in
        if x < 0 || x >= n then QCheck.Test.fail_reportf "out of range: %d" x;
        let b = min (k - 1) (int_of_float (float_of_int x /. float_of_int n *. float_of_int k)) in
        buckets.(b) <- buckets.(b) + 1
      done;
      let expect = float_of_int draws /. float_of_int k in
      Array.for_all
        (fun c -> Float.abs (float_of_int c -. expect) /. expect < 0.25)
        buckets)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int always lands in [0, n)" ~count:500
    QCheck.(pair (int_range 1 max_int) (int_range 0 10_000))
    (fun (n, seed) ->
      let r = Rng.create seed in
      let x = Rng.int r n in
      0 <= x && x < n)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_preserves_order () =
  let items = List.init 50 Fun.id in
  let got = Pool.map ~jobs:4 (fun x -> x * x) items in
  Alcotest.(check (list int)) "submission order" (List.map (fun x -> x * x) items) got

let test_pool_single_job () =
  let got = Pool.map ~jobs:1 (fun x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "sequential path" [ 2; 3; 4 ] got

let test_pool_empty_batch () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) [])

let test_pool_propagates_exception () =
  Alcotest.check_raises "worker exception reaches caller" (Failure "boom")
    (fun () ->
      ignore
        (Pool.map ~jobs:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 10 Fun.id)))

let test_pool_first_failure_wins () =
  (* both items fail; the lowest-indexed exception must be the one raised *)
  Alcotest.check_raises "lowest index first" (Failure "first") (fun () ->
      ignore
        (Pool.map ~jobs:2
           (function
             | 0 -> failwith "first" | 9 -> failwith "last" | x -> x)
           (List.init 10 Fun.id)))

let test_pool_matches_sequential_map () =
  let items = List.init 37 (fun i -> i * 3) in
  let f x = (x * 7) mod 11 in
  Alcotest.(check (list int)) "same as List.map" (List.map f items)
    (Pool.map ~jobs:8 f items)

let test_pool_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Lazy_tbl                                                            *)
(* ------------------------------------------------------------------ *)

(* Random int-key operations: (kind, key).  Keys range wide enough, and
   sequences run long enough, that a table created at [n] grows past
   2n bindings and resizes. *)
let gen_tbl_ops = QCheck.(list_of_size Gen.(int_range 0 300) (pair (int_range 0 3) (int_range 0 199)))

let fold_order h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []

let apply_stdlib h i (kind, k) =
  match kind with
  | 0 -> Hashtbl.add h k i
  | 1 | 2 -> Hashtbl.replace h k i
  | _ -> Hashtbl.remove h k

(* The stdlib fact [Lazy_tbl] relies on: a fresh [Hashtbl.create n] and a
   used-then-[reset] table of the same initial size fold in the same
   order under any later sequence of add/replace/remove. *)
let prop_hashtbl_reset_matches_fresh =
  QCheck.Test.make ~name:"reset table folds like fresh" ~count:300
    QCheck.(triple (int_range 1 64) gen_tbl_ops gen_tbl_ops)
    (fun (n, used_ops, ops) ->
      let fresh = Hashtbl.create n and used = Hashtbl.create n in
      List.iteri (apply_stdlib used) used_ops;
      Hashtbl.reset used;
      let ok = ref (fold_order fresh = fold_order used) in
      List.iteri
        (fun i op ->
          apply_stdlib fresh i op;
          apply_stdlib used i op;
          ok := !ok && fold_order fresh = fold_order used)
        ops;
      !ok)

(* [Lazy_tbl] against an eager table of the same initial size, from the
   unfilled state on, resets included: same bindings, same fold and iter
   order, at every step. *)
let prop_lazy_tbl_matches_eager =
  QCheck.Test.make ~name:"lazy table matches eager" ~count:300
    QCheck.(pair (int_range 1 64) gen_tbl_ops)
    (fun (n, ops) ->
      let lazy_t = Lazy_tbl.create n and eager = Hashtbl.create n in
      List.for_all
        (fun (i, (kind, k)) ->
          (match kind with
          | 0 | 1 ->
              Lazy_tbl.replace lazy_t k i;
              Hashtbl.replace eager k i
          | 2 ->
              Lazy_tbl.remove lazy_t k;
              Hashtbl.remove eager k
          | _ ->
              if k mod 10 = 0 then begin
                Lazy_tbl.reset lazy_t;
                Hashtbl.reset eager
              end);
          let iter_order = ref [] in
          Lazy_tbl.iter (fun k v -> iter_order := (k, v) :: !iter_order) lazy_t;
          Lazy_tbl.fold (fun k v acc -> (k, v) :: acc) lazy_t [] = fold_order eager
          && !iter_order = fold_order eager
          && Lazy_tbl.length lazy_t = Hashtbl.length eager
          && Lazy_tbl.find_opt lazy_t k = Hashtbl.find_opt eager k
          && Lazy_tbl.mem lazy_t k = Hashtbl.mem eager k)
        (List.mapi (fun i op -> (i, op)) ops))

let suites =
  [
    ( "engine",
      [
        case "hold advances clock" test_hold_advances_clock;
        case "fifo at same time" test_fifo_same_time;
        case "run ~until" test_run_until;
        case "stop" test_stop;
        case "spawn ~at" test_spawn_at;
        case "exit_process" test_exit_process;
        case "schedule in past rejected" test_schedule_past_rejected;
        case "exception propagates" test_engine_exception_propagates;
        case "event and process counts" test_engine_counts;
        case "negative hold rejected" test_hold_negative_rejected;
        case "NaN hold rejected" test_hold_nan_rejected;
        case "NaN schedule rejected" test_schedule_nan_rejected;
        case "profile global counters" test_profile_global_counters;
        case "profile per process" test_profile_per_process;
        case "profile name inherited" test_profile_name_inherited;
        case "live processes" test_live_processes;
      ] );
    qsuite "engine-props"
      [
        prop_engine_matches_reference;
        prop_engine_deep_heap_matches_reference;
        prop_engine_profiled_matches_reference;
      ];
    ( "mailbox",
      [
        case "fifo delivery" test_mailbox_fifo;
        case "non-blocking recv" test_mailbox_nonblocking;
        case "two receivers" test_mailbox_two_receivers;
        case "recv_timeout expires" test_mailbox_recv_timeout_expires;
        case "recv_timeout delivers" test_mailbox_recv_timeout_delivers;
        case "stale waiter forwards wake" test_mailbox_stale_waiter_forwards_wake;
        case "wake order fifo" test_mailbox_wake_order_fifo;
        case "serve: no process until the first send"
          test_serve_no_process_until_send;
        case "serve: one consumer while busy" test_serve_one_spawn_while_busy;
        case "serve: send from the consumer" test_serve_send_from_consumer;
        case "serve: receives rejected" test_serve_rejects_receivers;
      ] );
    qsuite "mailbox-props" [ prop_serve_matches_recv_loop ];
    ( "facility",
      [
        case "serializes unit capacity" test_facility_serializes;
        case "parallel units" test_facility_parallel_units;
        case "utilization" test_facility_utilization;
        case "queue stats" test_facility_queue_stats;
        case "reset stats" test_facility_reset_stats;
        case "high-water and busy time" test_facility_high_water_and_busy;
        case "busy time mid-service" test_facility_busy_time_accrues_mid_service;
      ] );
    qsuite "facility-props" [ prop_facility_fcfs ];
    ( "rng",
      [
        case "deterministic" test_rng_deterministic;
        case "split independence" test_rng_split_independent;
        case "ranges" test_rng_ranges;
        case "exponential mean" test_rng_exponential_mean;
        case "bernoulli rate" test_rng_bernoulli_rate;
        case "zero-mean exponential" test_rng_zero_mean_exponential;
        case "large-bound low bits uniform" test_rng_int_large_bound_low_bits;
      ] );
    qsuite "rng-props" [ prop_rng_int_bucket_frequency; prop_rng_int_in_range ];
    ( "pool",
      [
        case "preserves submission order" test_pool_preserves_order;
        case "single job" test_pool_single_job;
        case "empty batch" test_pool_empty_batch;
        case "propagates exception" test_pool_propagates_exception;
        case "first failure wins" test_pool_first_failure_wins;
        case "matches sequential map" test_pool_matches_sequential_map;
        case "default jobs positive" test_pool_default_jobs_positive;
      ] );
    ( "stats",
      [
        case "basic moments" test_stats_basic;
        case "empty" test_stats_empty;
        case "merge" test_stats_merge;
        case "counter" test_counter;
      ] );
    qsuite "stats-props" [ prop_stats_mean_matches_naive ];
    ( "samples",
      [
        case "quantiles" test_samples_quantiles;
        case "empty and reset" test_samples_empty_and_reset;
        case "capacity cap" test_samples_capacity;
        case "add after quantile" test_samples_add_after_quantile;
        case "merge pools exactly" test_samples_merge_exact_quantiles;
        case "merge with empty" test_samples_merge_empty;
      ] );
    qsuite "samples-props" [ prop_samples_median_between_min_max ];
    qsuite "lazy-tbl-props"
      [ prop_hashtbl_reset_matches_fresh; prop_lazy_tbl_matches_eager ];
  ]

let () = Alcotest.run "sim" suites
