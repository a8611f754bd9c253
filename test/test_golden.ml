(* Cross-commit golden rows.

   Each row below pins one fixed-seed simulation.  The expected rows live
   in golden_digests.txt, which was written by an earlier build, so any
   change to event order, RNG consumption or protocol behaviour shows up
   here even when every other test (which compares runs within one build)
   stays green.  Floats are pinned by their exact bits.  There are four
   kinds of row:

   - a digest row pins commits, aborts, events executed, the final
     simulated time and messages sent;
   - a latency row pins the commit-latency quantiles and mean of a run
     with spans and metrics on;
   - a causal row pins messages, packets and bytes per committed
     transaction, summed off the causal record's amplification table;
   - a shard-sweep row pins one cell of
     `ccsim exp shard-sweep --quick --reps 2`: throughput and the 2PC
     counters;
   - an artifact row pins the MD5 of every observability artifact of a
     run with all four channels on (trace, span and DAG text, OpenMetrics,
     Perfetto JSON) and each channel's ring drop count; one row runs at
     a ring limit of 300 so the wrapped path is pinned too.

   The "relations" group checks properties the rows must have whatever
   their values (no 2PC on one shard, fan-out amplifies messages, ordered
   quantiles), on the same runs.

   A change that alters event order on purpose regenerates the file with

     dune exec test/test_golden.exe -- --print > test/golden_digests.txt

   and says why in its description. *)

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

let name = Core.Proto.algorithm_name
let bits = Int64.bits_of_float

let plain ?(n_shards = 1) algo =
  let spec =
    Core.Simulator.default_spec ~seed:7 ~warmup_commits:20 ~measured_commits:300
      ~cfg:(Core.Sys_params.table5 ~n_clients:10 ())
      ~xact_params:
        (Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 ())
      algo
  in
  { spec with Core.Simulator.n_shards }

let mpl2 c = { c with Core.Sys_params.mpl = 2 }

(* Write-contended cells: PW 0.5 and Loc 0.75 at seed 7.  Their lock waits
   end in a grant or an abort, some before the waiting handler suspends;
   no-wait joins an in-flight disk read, and under message loss callback
   re-nags the holders of a lock it still waits for. *)
let contended ?fault cfg algo =
  Core.Simulator.default_spec ~seed:7 ~warmup_commits:20 ~measured_commits:300
    ?fault ~cfg
    ~xact_params:
      (Db.Xact_params.short_batch ~prob_write:0.5 ~inter_xact_loc:0.75 ())
    algo

(* Eight shards with Zipf class skew (the benchmark's sharded-2pc cell
   shape): callback retains locks on every shard, and the periodic
   detector's waits-for graph spans eight lock tables.  Seed 1004 breaks
   deadlocks. *)
let sharded_skew1 algo =
  let spec =
    Core.Simulator.default_spec ~seed:1004 ~warmup_commits:30
      ~measured_commits:300
      ~cfg:(Core.Sys_params.table5 ~n_clients:25 ())
      ~xact_params:
        {
          (Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ())
          with
          Db.Xact_params.class_skew = 1.0;
        }
      algo
  in
  { spec with Core.Simulator.n_shards = 8 }

let digest_cells =
  List.map (fun a -> (name a ^ "/1shard", plain a)) variants
  @ List.map
      (fun a -> (name a ^ "/4shards", plain ~n_shards:4 a))
      Core.Proto.
        [
          Two_phase Inter;
          Callback;
          Certification Inter;
          No_wait { notify = Some Push };
          No_wait { notify = Some Invalidate };
        ]
  @ [
      ( "cert/4shards/fault-default",
        Experiments.Chaos.spec ~n_shards:4 ~measured_commits:300
          ~fault:(Fault.Plan.default ~seed:11)
          (Core.Proto.Certification Core.Proto.Inter) );
      ( "callback/1shard/fault-server-default",
        Experiments.Chaos.spec ~measured_commits:300
          ~fault:(Fault.Plan.server_default ~seed:12)
          Core.Proto.Callback );
    ]
  (* protocol branches that only a configuration extension reaches *)
  @ List.map
      (fun (label, algo, tweak, fault) ->
        let spec = plain algo in
        ( label,
          {
            spec with
            Core.Simulator.cfg = tweak spec.Core.Simulator.cfg;
            fault = Option.value fault ~default:spec.Core.Simulator.fault;
          } ))
      Core.Proto.
        [
          ( "callback/1shard/retain-writes",
            Callback,
            (fun c -> { c with Core.Sys_params.callback_retain_writes = true }),
            None );
          ( "callback/1shard/grace0",
            Callback,
            (fun c -> { c with Core.Sys_params.callback_grace = 0.0 }),
            None );
          ( "2PL/1shard/notify-push",
            Two_phase Inter,
            (fun c -> { c with Core.Sys_params.notify_updates = Some Push }),
            None );
          ( "no-wait/1shard/stale-drop-one",
            No_wait { notify = None },
            (fun c -> { c with Core.Sys_params.stale_drop_all = false }),
            None );
          ( "2PL/1shard/fault-default",
            Two_phase Inter,
            Fun.id,
            Some (Fault.Plan.default ~seed:13) );
          ( "no-wait+notify/1shard/fault-default",
            No_wait { notify = Some Push },
            Fun.id,
            Some (Fault.Plan.default ~seed:14) );
          (* an MPL of 2 at 10 clients: requests park in the ready queue,
             wait on a transaction still being admitted, and queue on a
             transaction's operation chain, across server crashes too *)
          ("2PL/1shard/mpl2", Two_phase Inter, mpl2, None);
          ("no-wait/1shard/mpl2", No_wait { notify = None }, mpl2, None);
          ("callback/1shard/mpl2", Callback, mpl2, None);
          ( "2PL/1shard/mpl2/fault-server-default",
            Two_phase Inter,
            mpl2,
            Some (Fault.Plan.server_default ~seed:12) );
        ]
  @ List.map
      (fun (label, cfg, algo, fault) -> (label, contended ?fault cfg algo))
      Core.Proto.
        [
          ( "2PL/1shard/contended-fast-server",
            Core.Sys_params.fast_server ~n_clients:20 (),
            Two_phase Inter,
            None );
          ( "no-wait/1shard/contended-fast-server",
            Core.Sys_params.fast_server ~n_clients:20 (),
            No_wait { notify = None },
            None );
          ( "callback/1shard/contended",
            Core.Sys_params.table5 ~n_clients:10 (),
            Callback,
            None );
          ( "callback/1shard/contended/fault-default",
            Core.Sys_params.table5 ~n_clients:10 (),
            Callback,
            Some (Fault.Plan.default ~seed:7) );
        ]
  @ [ ("callback/8shards/skew1", sharded_skew1 Core.Proto.Callback) ]

let digest spec =
  let r = Shard.Shard_sim.run spec in
  Printf.sprintf "commits=%d aborts=%d events=%d sim_time_bits=%Ld messages=%d"
    r.Core.Simulator.commits r.aborts r.events
    (Int64.bits_of_float r.sim_time)
    r.messages

(* The latency and causal cells: 8 clients, PW=0.2, Loc=0.25, seed 3, one
   run each with the given observability channels on. *)
let observed obs (algo, n_shards) =
  let spec =
    Core.Simulator.default_spec ~seed:3 ~warmup_commits:50 ~measured_commits:300
      ~obs
      ~cfg:(Core.Sys_params.table5 ~n_clients:8 ())
      ~xact_params:
        (Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.25 ())
      algo
  in
  match (Shard.Shard_sim.run { spec with Core.Simulator.n_shards }).obs with
  | Some o -> o
  | None -> Alcotest.failf "%s@%d: no observability record" (name algo) n_shards

type latency = { p50 : float; p95 : float; p99 : float; mean : float; xacts : int }

let latency cell =
  match
    Option.bind
      (Obs.Run.merged_metrics (observed Obs.Config.latency cell))
      (fun m -> Obs.Metrics.histogram m "ccsim_commit_latency_seconds")
  with
  | Some h when Obs.Metrics.Hist.count h > 0 ->
      let q = Obs.Metrics.Hist.quantile h in
      let xacts = Obs.Metrics.Hist.count h in
      {
        p50 = q 0.50;
        p95 = q 0.95;
        p99 = q 0.99;
        mean = Obs.Metrics.Hist.sum h /. float_of_int xacts;
        xacts;
      }
  | _ -> Alcotest.failf "%s@%d: no commit-latency histogram" (name (fst cell)) (snd cell)

let latency_cells =
  Core.Proto.
    [
      (Two_phase Inter, 1);
      (Certification Inter, 1);
      (Callback, 1);
      (No_wait { notify = Some Push }, 1);
      (Two_phase Inter, 2);
      (Callback, 2);
    ]

type causal = { msgs : float; pkts : float; bytes : float; commits : int }

let causal cell =
  let record = Obs.Run.merged_causal (observed Obs.Config.causal cell) in
  let commits =
    (Obs.Causal.analyze record).Obs.Causal.an_check.Obs.Causal.ck_committed
  in
  if commits = 0 then
    Alcotest.failf "%s@%d: committed nothing" (name (fst cell)) (snd cell);
  let sum f =
    List.fold_left (fun acc a -> acc + f a) 0 (Obs.Causal.amplification record)
  in
  let per f = float_of_int (sum f) /. float_of_int commits in
  {
    msgs = per (fun a -> a.Obs.Causal.am_msgs);
    pkts = per (fun a -> a.Obs.Causal.am_pkts);
    bytes = per (fun a -> a.Obs.Causal.am_bytes);
    commits;
  }

let causal_algos =
  Core.Proto.
    [
      Two_phase Inter;
      Certification Inter;
      Callback;
      No_wait { notify = None };
      No_wait { notify = Some Push };
      No_wait { notify = Some Invalidate };
    ]

let causal_cells = List.concat_map (fun a -> [ (a, 1); (a, 4) ]) causal_algos

type shard_cell = {
  pattern : string;
  shards : int;
  throughput : float;
  xshard_commits : int;
  prepares : int;
}

(* The throughput figure of the quick shard sweep, one cell per (pattern,
   shard count). *)
let shard_sweep =
  lazy
    (let _, _, build = Option.get (Experiments.Suite.find "shard-sweep") in
     let runner =
       Experiments.Exp_defs.make_runner
         { Experiments.Exp_defs.quick_opts with reps = 2 }
     in
     match Experiments.Exp_defs.run_build runner build with
     | Experiments.Suite.Figures (fig :: _) ->
         List.concat_map
           (fun (s : Experiments.Exp_defs.series) ->
             List.map
               (fun (x, (r : Core.Simulator.result)) ->
                 {
                   pattern = s.label;
                   shards = int_of_float x;
                   throughput = r.throughput;
                   xshard_commits = r.xshard_commits;
                   prepares = r.prepares;
                 })
               s.points)
           fig.Experiments.Exp_defs.series
     | _ -> Alcotest.fail "shard-sweep: no throughput figure")

(* Each cell's measurement runs once, on first use, whether a golden row
   or a relation asks for it first. *)
let memo f cells = List.map (fun c -> (c, lazy (f c))) cells
let latencies = memo latency latency_cells
let causals = memo causal causal_cells
let cell_label kind (algo, n) = Printf.sprintf "%s/%s/%dshard" kind (name algo) n

(* (label, row body) in file order. *)
let rows : (string * string Lazy.t) list =
  List.map (fun (label, spec) -> (label, lazy (digest spec))) digest_cells
  @ List.map
      (fun (c, l) ->
        ( cell_label "latency" c,
          lazy
            (let l = Lazy.force l in
             Printf.sprintf "p50_bits=%Ld p95_bits=%Ld p99_bits=%Ld mean_bits=%Ld xacts=%d"
               (bits l.p50) (bits l.p95) (bits l.p99) (bits l.mean) l.xacts) ))
      latencies
  @ List.map
      (fun (c, z) ->
        ( cell_label "causal" c,
          lazy
            (let z = Lazy.force z in
             Printf.sprintf
               "msgs_per_commit_bits=%Ld pkts_per_commit_bits=%Ld \
                bytes_per_commit_bits=%Ld commits=%d"
               (bits z.msgs) (bits z.pkts) (bits z.bytes) z.commits) ))
      causals
  @ List.concat_map
      (fun pattern ->
        List.map
          (fun shards ->
            ( Printf.sprintf "shard-sweep/%s/%dshard" pattern shards,
              lazy
                (let h =
                   List.find
                     (fun h -> h.pattern = pattern && h.shards = shards)
                     (Lazy.force shard_sweep)
                 in
                 Printf.sprintf "throughput_bits=%Ld xshard_commits=%d prepares=%d"
                   (bits h.throughput) h.xshard_commits h.prepares) ))
          Experiments.Suite.shard_counts)
      [ "uniform"; "zipf-hot" ]

(* Every channel on; [limit] is each ring's capacity. *)
let all_channels ?limit () =
  Obs.Config.make ~trace:true ~spans:true ~metrics:true ~causal:true ?limit ()

let artifact_cells =
  [
    ("artifact/2PL/1shard", plain (Core.Proto.Two_phase Core.Proto.Inter), None);
    ( "artifact/callback/4shards/fault-default",
      Experiments.Chaos.spec ~n_shards:4 ~measured_commits:300
        ~fault:(Fault.Plan.default ~seed:11) Core.Proto.Callback,
      None );
    ( "artifact/no-wait+notify/1shard",
      plain (Core.Proto.No_wait { notify = Some Core.Proto.Push }),
      None );
    ("artifact/2PL/1shard/limit300", plain (Core.Proto.Two_phase Core.Proto.Inter), Some 300);
  ]

let artifacts ((spec : Core.Simulator.spec), limit) =
  let spec = { spec with Core.Simulator.obs = all_channels ?limit () } in
  match (Shard.Shard_sim.run spec).obs with
  | None -> Alcotest.fail "no observability record"
  | Some o ->
      let md5 s = Digest.to_hex (Digest.string s) in
      let trace = Obs.Run.merged_trace o
      and spans = Obs.Run.merged_spans o
      and flows = Obs.Run.merged_causal o in
      let metrics =
        match Obs.Run.merged_metrics o with
        | Some m -> Obs.Metrics.to_openmetrics m
        | None -> Alcotest.fail "no metrics registry"
      in
      let dropped f = List.fold_left (fun a r -> a + f r) 0 o.Obs.Run.reps in
      Printf.sprintf
        "trace=%s spans=%s dag=%s metrics=%s perfetto=%s dropped=%d,%d,%d"
        (md5 (Obs.Export.trace_text trace))
        (md5 (Obs.Export.span_text spans))
        (md5 (Obs.Export.dag_text flows))
        (md5 metrics)
        (md5 (Obs.Export.perfetto ~spans ~flows trace))
        (dropped (fun r -> r.Obs.Run.trace_dropped))
        (dropped (fun r -> r.Obs.Run.spans_dropped))
        (dropped (fun r -> r.Obs.Run.causal_dropped))

let rows =
  rows
  @ List.map
      (fun (label, spec, limit) -> (label, lazy (artifacts (spec, limit))))
      artifact_cells

let line (label, body) = label ^ " " ^ Lazy.force body
(* [dune runtest] runs the test next to its copy of the file;
   [dune exec test/test_golden.exe] runs it from the repository root. *)
let golden_file =
  List.find_opt Sys.file_exists
    [ "golden_digests.txt"; Filename.concat "test" "golden_digests.txt" ]
  |> Option.value ~default:"golden_digests.txt"

let read_golden () =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let label_of line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let test_row ((label, _) as row) () =
  match List.find_opt (fun l -> label_of l = label) (read_golden ()) with
  | None -> Alcotest.failf "%s: no row in %s" label golden_file
  | Some expected -> Alcotest.(check string) label expected (line row)

let test_no_stale_rows () =
  Alcotest.(check (list string))
    "one golden row per cell, in cell order" (List.map fst rows)
    (List.map label_of (read_golden ()))

let distinct l = List.sort_uniq compare l

let test_shard_relation () =
  let cells = Lazy.force shard_sweep in
  List.iter
    (fun h ->
      let at = Printf.sprintf "%s@%d" h.pattern h.shards in
      Alcotest.(check bool) (at ^ " throughput > 0") true (h.throughput > 0.0);
      if h.shards = 1 then begin
        Alcotest.(check int) (at ^ " prepares") 0 h.prepares;
        Alcotest.(check int) (at ^ " xshard_commits") 0 h.xshard_commits
      end
      else
        Alcotest.(check bool) (at ^ " xshard_commits > 0") true (h.xshard_commits > 0))
    cells;
  Alcotest.(check bool) ">= 3 shard counts" true
    (List.length (distinct (List.map (fun h -> h.shards) cells)) >= 3);
  Alcotest.(check (list string)) "two patterns" [ "uniform"; "zipf-hot" ]
    (distinct (List.map (fun h -> h.pattern) cells))

let test_causal_relation () =
  let at (algo, n) = Lazy.force (List.assoc (algo, n) causals) in
  List.iter
    (fun ((algo, n), z) ->
      let z = Lazy.force z and where = Printf.sprintf "%s@%d" (name algo) n in
      Alcotest.(check bool) (where ^ " 0 < msgs <= pkts") true
        (0.0 < z.msgs && z.msgs <= z.pkts);
      Alcotest.(check bool) (where ^ " bytes > 0") true (z.bytes > 0.0))
    causals;
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        (name algo ^ " 2PC fan-out amplifies msgs/commit")
        true
        ((at (algo, 4)).msgs > (at (algo, 1)).msgs))
    causal_algos

let test_latency_relation () =
  List.iter
    (fun ((algo, n), l) ->
      let l = Lazy.force l and where = Printf.sprintf "%s@%d" (name algo) n in
      Alcotest.(check bool) (where ^ " 0 < p50 <= p95 <= p99") true
        (0.0 < l.p50 && l.p50 <= l.p95 && l.p95 <= l.p99);
      Alcotest.(check bool) (where ^ " mean > 0") true (l.mean > 0.0))
    latencies;
  Alcotest.(check (list int)) "shard counts" [ 1; 2 ]
    (distinct (List.map snd latency_cells));
  Alcotest.(check bool) ">= 3 protocols" true
    (List.length (distinct (List.map (fun (a, _) -> name a) latency_cells)) >= 3)

let () =
  if Array.mem "--print" Sys.argv then List.iter (fun r -> print_endline (line r)) rows
  else
    Alcotest.run "golden"
      [
        ( "golden",
          Alcotest.test_case "rows match cells" `Quick test_no_stale_rows
          :: List.map
               (fun ((label, _) as r) -> Alcotest.test_case label `Quick (test_row r))
               rows );
        ( "relations",
          [
            Alcotest.test_case "shard-sweep: 2PC only above one shard" `Quick
              test_shard_relation;
            Alcotest.test_case "causal: ordered and amplified by shards" `Quick
              test_causal_relation;
            Alcotest.test_case "latency: ordered quantiles" `Quick test_latency_relation;
          ] );
      ]
