(* Benchmark telemetry snapshots: the JSON the bench harness writes with
   --json, and the comparison behind `ccsim bench-diff`.

   A snapshot records how fast the simulator itself ran — per-experiment
   wall-clock and engine event throughput, microbenchmark medians with
   replication confidence intervals, an engine probe (events/sec and
   event-heap high-water mark) — plus full provenance (Report.repro_line:
   seed, jobs, git, OCaml version, host), so two snapshots can be
   compared across PRs with noise awareness.  Serialization is
   hand-rolled JSON (reusing Obs.Export's escaper and parser): no
   dependency enters the tree, and every emitted snapshot parses with the
   in-repo RFC 8259 validator. *)

let schema_version = "ccsim-bench/1"

type experiment = {
  e_id : string;
  e_wall_s : float;  (* wall-clock seconds to run + render the experiment *)
  e_sims : int;  (* simulations newly executed (cache misses) *)
  e_events : int;  (* engine events summed over the figure cells *)
}

let events_per_sec ~events ~wall_s =
  if wall_s <= 0.0 then 0.0 else float_of_int events /. wall_s

type micro = {
  m_name : string;
  m_runs : int;
  m_median_ns : float;
  m_ci_lo_ns : float;  (* 95 % CI of the mean run time; = median at runs < 2 *)
  m_ci_hi_ns : float;
}

type probe = {
  p_wall_s : float;
  p_events : int;
  p_heap_hwm : int;  (* event-heap high-water mark of the probe run *)
}

(* One cell of the client-population scalability sweep: how fast the
   engine ran (events per wall-clock second) and how much event-heap it
   needed at a given population.  Keyed by (algo, clients) in diffs. *)
type sweep_cell = {
  w_clients : int;
  w_algo : string;
  w_events : int;
  w_wall_s : float;
  w_heap_hwm : int;
  w_live_words_per_client : int option;  (* absent in older snapshots *)
}

(* One cell of the shard sweep: paper-style simulated figures under 1-16
   shard servers with 2PC.  They are deterministic — a drift between
   snapshots on the same seed is semantic (protocol behavior changed),
   never measurement noise — so diffs compare them with no noise band. *)
type shard_cell = {
  h_shards : int;
  h_pattern : string;  (* access pattern: uniform | zipf-hot *)
  h_throughput : float;  (* committed transactions per simulated second *)
  h_xshard_commits : int;  (* cross-shard 2PC commits *)
  h_prepares : int;  (* prepare slices force-logged *)
}

(* One cell of the commit-latency decomposition: per-protocol quantiles
   of simulated end-to-end commit latency, measured by the span/metrics
   layer on a fixed-seed run.  Like the shard cells these are
   deterministic, so drift between snapshots is semantic, never noise. *)
type latency_cell = {
  l_algo : string;
  l_shards : int;
  l_p50 : float;  (* simulated seconds *)
  l_p95 : float;
  l_p99 : float;
  l_mean : float;
  l_xacts : int;  (* committed transactions behind the quantiles *)
}

(* One cell of the message-amplification table: how many network
   messages (and packets and payload bytes) one committed transaction
   costs under a protocol at a shard count, measured by the causal
   message record on a fixed-seed run.  Deterministic — diffs compare
   with no noise band; a commit-count change is surfaced as a note. *)
type causal_cell = {
  z_algo : string;
  z_shards : int;
  z_msgs_per_commit : float;  (* messages sent per committed xact *)
  z_pkts_per_commit : float;
  z_bytes_per_commit : float;
  z_commits : int;  (* committed transactions behind the ratios *)
}

type snapshot = {
  s_schema : string;
  s_repro : string;  (* Report.repro_line verbatim — the provenance header *)
  s_git : string;
  s_ocaml : string;
  s_host : string;
  s_seed : int;
  s_jobs : int;
  s_reps : int;
  s_quick : bool;
  s_experiments : experiment list;
  s_micro : micro list;
  s_sweep : sweep_cell list;  (* empty when the sweep was not run *)
  s_shard : shard_cell list;  (* empty when the shard sweep was not run *)
  s_latency : latency_cell list;  (* empty when latency cells were not run *)
  s_causal : causal_cell list;  (* empty when causal cells were not run *)
  s_engine : probe option;
}

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let q s = "\"" ^ Obs.Export.json_escape s ^ "\""
let f v = Printf.sprintf "%.17g" v

let to_json s =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": %s,\n" (q s.s_schema);
  add "  \"repro\": %s,\n" (q s.s_repro);
  add "  \"git\": %s,\n" (q s.s_git);
  add "  \"ocaml\": %s,\n" (q s.s_ocaml);
  add "  \"host\": %s,\n" (q s.s_host);
  add "  \"seed\": %d,\n" s.s_seed;
  add "  \"jobs\": %d,\n" s.s_jobs;
  add "  \"reps\": %d,\n" s.s_reps;
  add "  \"quick\": %b,\n" s.s_quick;
  add "  \"experiments\": [";
  List.iteri
    (fun i e ->
      add "%s\n    {\"id\": %s, \"wall_s\": %s, \"sims\": %d, \"events\": %d, \
           \"events_per_sec\": %s}"
        (if i = 0 then "" else ",")
        (q e.e_id) (f e.e_wall_s) e.e_sims e.e_events
        (f (events_per_sec ~events:e.e_events ~wall_s:e.e_wall_s)))
    s.s_experiments;
  add "%s],\n" (if s.s_experiments = [] then "" else "\n  ");
  add "  \"micro\": [";
  List.iteri
    (fun i m ->
      add "%s\n    {\"name\": %s, \"runs\": %d, \"median_ns\": %s, \
           \"ci_lo_ns\": %s, \"ci_hi_ns\": %s}"
        (if i = 0 then "" else ",")
        (q m.m_name) m.m_runs (f m.m_median_ns) (f m.m_ci_lo_ns)
        (f m.m_ci_hi_ns))
    s.s_micro;
  add "%s],\n" (if s.s_micro = [] then "" else "\n  ");
  add "  \"sweep\": [";
  List.iteri
    (fun i w ->
      add "%s\n    {\"clients\": %d, \"algo\": %s, \"events\": %d, \
           \"wall_s\": %s, \"events_per_sec\": %s, \"heap_hwm\": %d%s}"
        (if i = 0 then "" else ",")
        w.w_clients (q w.w_algo) w.w_events (f w.w_wall_s)
        (f (events_per_sec ~events:w.w_events ~wall_s:w.w_wall_s))
        w.w_heap_hwm
        (match w.w_live_words_per_client with
        | Some n -> Printf.sprintf ", \"live_words_per_client\": %d" n
        | None -> ""))
    s.s_sweep;
  add "%s],\n" (if s.s_sweep = [] then "" else "\n  ");
  add "  \"shard_sweep\": [";
  List.iteri
    (fun i h ->
      add "%s\n    {\"shards\": %d, \"pattern\": %s, \"throughput\": %s, \
           \"xshard_commits\": %d, \"prepares\": %d}"
        (if i = 0 then "" else ",")
        h.h_shards (q h.h_pattern) (f h.h_throughput) h.h_xshard_commits
        h.h_prepares)
    s.s_shard;
  add "%s],\n" (if s.s_shard = [] then "" else "\n  ");
  add "  \"latency\": [";
  List.iteri
    (fun i l ->
      add "%s\n    {\"algo\": %s, \"shards\": %d, \"p50\": %s, \"p95\": %s, \
           \"p99\": %s, \"mean\": %s, \"xacts\": %d}"
        (if i = 0 then "" else ",")
        (q l.l_algo) l.l_shards (f l.l_p50) (f l.l_p95) (f l.l_p99)
        (f l.l_mean) l.l_xacts)
    s.s_latency;
  add "%s],\n" (if s.s_latency = [] then "" else "\n  ");
  add "  \"causal\": [";
  List.iteri
    (fun i z ->
      add "%s\n    {\"algo\": %s, \"shards\": %d, \"msgs_per_commit\": %s, \
           \"pkts_per_commit\": %s, \"bytes_per_commit\": %s, \"commits\": %d}"
        (if i = 0 then "" else ",")
        (q z.z_algo) z.z_shards (f z.z_msgs_per_commit)
        (f z.z_pkts_per_commit) (f z.z_bytes_per_commit) z.z_commits)
    s.s_causal;
  add "%s],\n" (if s.s_causal = [] then "" else "\n  ");
  (match s.s_engine with
  | None -> add "  \"engine\": null\n"
  | Some p ->
      add
        "  \"engine\": {\"wall_s\": %s, \"events\": %d, \"events_per_sec\": \
         %s, \"heap_hwm\": %d}\n"
        (f p.p_wall_s) p.p_events
        (f (events_per_sec ~events:p.p_events ~wall_s:p.p_wall_s))
        p.p_heap_hwm);
  add "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON reading                                                        *)
(* ------------------------------------------------------------------ *)

exception Shape of string

let get k j =
  match Obs.Export.member k j with
  | Some v -> v
  | None -> raise (Shape (Printf.sprintf "missing field %S" k))

let str = function
  | Obs.Export.Str s -> s
  | _ -> raise (Shape "expected string")

let num = function
  | Obs.Export.Num v -> v
  | _ -> raise (Shape "expected number")

let int j = int_of_float (num j)

let bool = function
  | Obs.Export.Bool v -> v
  | _ -> raise (Shape "expected bool")

let arr = function
  | Obs.Export.Arr l -> l
  | _ -> raise (Shape "expected array")

let of_json text =
  match Obs.Export.parse_json text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> (
      try
        let schema = str (get "schema" j) in
        if schema <> schema_version then
          raise
            (Shape
               (Printf.sprintf "schema %S, expected %S" schema schema_version));
        Ok
          {
            s_schema = schema;
            s_repro = str (get "repro" j);
            s_git = str (get "git" j);
            s_ocaml = str (get "ocaml" j);
            s_host = str (get "host" j);
            s_seed = int (get "seed" j);
            s_jobs = int (get "jobs" j);
            s_reps = int (get "reps" j);
            s_quick = bool (get "quick" j);
            s_experiments =
              List.map
                (fun e ->
                  {
                    e_id = str (get "id" e);
                    e_wall_s = num (get "wall_s" e);
                    e_sims = int (get "sims" e);
                    e_events = int (get "events" e);
                  })
                (arr (get "experiments" j));
            s_micro =
              List.map
                (fun m ->
                  {
                    m_name = str (get "name" m);
                    m_runs = int (get "runs" m);
                    m_median_ns = num (get "median_ns" m);
                    m_ci_lo_ns = num (get "ci_lo_ns" m);
                    m_ci_hi_ns = num (get "ci_hi_ns" m);
                  })
                (arr (get "micro" j));
            s_sweep =
              (* additive section: absent in snapshots written before the
                 sweep existed, and that must stay parseable *)
              (match Obs.Export.member "sweep" j with
              | None -> []
              | Some a ->
                  List.map
                    (fun w ->
                      {
                        w_clients = int (get "clients" w);
                        w_algo = str (get "algo" w);
                        w_events = int (get "events" w);
                        w_wall_s = num (get "wall_s" w);
                        w_heap_hwm = int (get "heap_hwm" w);
                        w_live_words_per_client =
                          Option.map int
                            (Obs.Export.member "live_words_per_client" w);
                      })
                    (arr a));
            s_shard =
              (* additive like the sweep: absent in older snapshots *)
              (match Obs.Export.member "shard_sweep" j with
              | None -> []
              | Some a ->
                  List.map
                    (fun h ->
                      {
                        h_shards = int (get "shards" h);
                        h_pattern = str (get "pattern" h);
                        h_throughput = num (get "throughput" h);
                        h_xshard_commits = int (get "xshard_commits" h);
                        h_prepares = int (get "prepares" h);
                      })
                    (arr a));
            s_latency =
              (* additive like the sweeps: absent in older snapshots *)
              (match Obs.Export.member "latency" j with
              | None -> []
              | Some a ->
                  List.map
                    (fun l ->
                      {
                        l_algo = str (get "algo" l);
                        l_shards = int (get "shards" l);
                        l_p50 = num (get "p50" l);
                        l_p95 = num (get "p95" l);
                        l_p99 = num (get "p99" l);
                        l_mean = num (get "mean" l);
                        l_xacts = int (get "xacts" l);
                      })
                    (arr a));
            s_causal =
              (* additive like the sweeps: absent in older snapshots *)
              (match Obs.Export.member "causal" j with
              | None -> []
              | Some a ->
                  List.map
                    (fun z ->
                      {
                        z_algo = str (get "algo" z);
                        z_shards = int (get "shards" z);
                        z_msgs_per_commit = num (get "msgs_per_commit" z);
                        z_pkts_per_commit = num (get "pkts_per_commit" z);
                        z_bytes_per_commit = num (get "bytes_per_commit" z);
                        z_commits = int (get "commits" z);
                      })
                    (arr a));
            s_engine =
              (match get "engine" j with
              | Obs.Export.Null -> None
              | p ->
                  Some
                    {
                      p_wall_s = num (get "wall_s" p);
                      p_events = int (get "events" p);
                      p_heap_hwm = int (get "heap_hwm" p);
                    });
          }
      with Shape msg -> Error ("bad snapshot: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type finding = {
  f_metric : string;
  f_base : float;
  f_cur : float;
  f_slowdown : float;  (* > 1 means the current snapshot is slower *)
}

type verdict = {
  v_threshold : float;
  v_regressions : finding list;
  v_improvements : finding list;
  v_notes : string list;
}

let ok v = v.v_regressions = []

(* Wall-clock measurements below this are timer jitter, not signal. *)
let min_wall_s = 0.05

let overlap (alo, ahi) (blo, bhi) = alo <= bhi && blo <= ahi

(* Index a list by key once so matching baseline entries against current
   ones costs O(n) total instead of O(n.m) rescans.  First entry wins on a
   duplicate key, matching List.find_opt on the unindexed list. *)
let index_by key l =
  let h = Hashtbl.create (max 8 (List.length l)) in
  List.iter (fun x -> if not (Hashtbl.mem h (key x)) then Hashtbl.add h (key x) x) l;
  h

let diff ?(threshold = 0.25) ~baseline ~current () =
  if threshold <= 0.0 then invalid_arg "Telemetry.diff: threshold must be > 0";
  let regressions = ref [] and improvements = ref [] and notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if baseline.s_host <> current.s_host then
    note
      "snapshots come from different hosts (%s vs %s): wall-clock deltas \
       include machine noise"
      baseline.s_host current.s_host;
  if baseline.s_ocaml <> current.s_ocaml then
    note "OCaml versions differ (%s vs %s)" baseline.s_ocaml current.s_ocaml;
  if baseline.s_quick <> current.s_quick then
    note "depth differs (quick=%b vs quick=%b): not comparable cell by cell"
      baseline.s_quick current.s_quick;
  let classify ~metric ~base ~cur ~slowdown ~noisy =
    if Float.is_nan slowdown then ()
    else if slowdown > 1.0 +. threshold && not noisy then
      regressions :=
        { f_metric = metric; f_base = base; f_cur = cur; f_slowdown = slowdown }
        :: !regressions
    else if slowdown < 1.0 /. (1.0 +. threshold) then
      improvements :=
        { f_metric = metric; f_base = base; f_cur = cur; f_slowdown = slowdown }
        :: !improvements
  in
  (* experiments: match by id; wall-clock, higher = worse *)
  let cur_exp = index_by (fun (c : experiment) -> c.e_id) current.s_experiments in
  let base_exp = index_by (fun (b : experiment) -> b.e_id) baseline.s_experiments in
  List.iter
    (fun (b : experiment) ->
      match Hashtbl.find_opt cur_exp b.e_id with
      | None -> note "experiment %s only in baseline" b.e_id
      | Some c ->
          let noisy = b.e_wall_s < min_wall_s && c.e_wall_s < min_wall_s in
          classify
            ~metric:(Printf.sprintf "experiment %s wall_s" b.e_id)
            ~base:b.e_wall_s ~cur:c.e_wall_s
            ~slowdown:(if b.e_wall_s <= 0.0 then Float.nan
                       else c.e_wall_s /. b.e_wall_s)
            ~noisy)
    baseline.s_experiments;
  List.iter
    (fun (c : experiment) ->
      if not (Hashtbl.mem base_exp c.e_id) then
        note "experiment %s only in current snapshot" c.e_id)
    current.s_experiments;
  (* microbenches: match by name; a regression needs both the medians to
     move past the threshold AND the replication CIs to not overlap —
     overlapping intervals mean the difference is within measurement
     noise *)
  let cur_micro = index_by (fun (c : micro) -> c.m_name) current.s_micro in
  let base_micro = index_by (fun (b : micro) -> b.m_name) baseline.s_micro in
  List.iter
    (fun (b : micro) ->
      match Hashtbl.find_opt cur_micro b.m_name with
      | None -> note "microbench %S only in baseline" b.m_name
      | Some c ->
          let noisy =
            overlap (b.m_ci_lo_ns, b.m_ci_hi_ns) (c.m_ci_lo_ns, c.m_ci_hi_ns)
          in
          classify
            ~metric:(Printf.sprintf "micro %S median_ns" b.m_name)
            ~base:b.m_median_ns ~cur:c.m_median_ns
            ~slowdown:(if b.m_median_ns <= 0.0 then Float.nan
                       else c.m_median_ns /. b.m_median_ns)
            ~noisy)
    baseline.s_micro;
  List.iter
    (fun (c : micro) ->
      if not (Hashtbl.mem base_micro c.m_name) then
        note "microbench %S only in current snapshot" c.m_name)
    current.s_micro;
  (* sweep cells: match by (algo, clients); events/sec, lower = worse;
     heap high-water, higher = worse.  The heap mark is deterministic, so
     it gets no noise band. *)
  let sweep_key (w : sweep_cell) = Printf.sprintf "%s@%d" w.w_algo w.w_clients in
  let cur_sweep = index_by sweep_key current.s_sweep in
  let base_sweep = index_by sweep_key baseline.s_sweep in
  List.iter
    (fun (b : sweep_cell) ->
      match Hashtbl.find_opt cur_sweep (sweep_key b) with
      | None -> note "sweep cell %s only in baseline" (sweep_key b)
      | Some c ->
          let b_eps = events_per_sec ~events:b.w_events ~wall_s:b.w_wall_s in
          let c_eps = events_per_sec ~events:c.w_events ~wall_s:c.w_wall_s in
          let noisy = b.w_wall_s < min_wall_s && c.w_wall_s < min_wall_s in
          classify
            ~metric:(Printf.sprintf "sweep %s events_per_sec" (sweep_key b))
            ~base:b_eps ~cur:c_eps
            ~slowdown:(if c_eps <= 0.0 then Float.nan else b_eps /. c_eps)
            ~noisy;
          classify
            ~metric:(Printf.sprintf "sweep %s heap_hwm" (sweep_key b))
            ~base:(float_of_int b.w_heap_hwm)
            ~cur:(float_of_int c.w_heap_hwm)
            ~slowdown:
              (if b.w_heap_hwm <= 0 then Float.nan
               else float_of_int c.w_heap_hwm /. float_of_int b.w_heap_hwm)
            ~noisy:false)
    baseline.s_sweep;
  List.iter
    (fun (c : sweep_cell) ->
      if not (Hashtbl.mem base_sweep (sweep_key c)) then
        note "sweep cell %s only in current snapshot" (sweep_key c))
    current.s_sweep;
  (* shard cells: match by (pattern, shards).  These are simulated
     figures, fully deterministic for a given seed — throughput moving
     past the threshold is a semantic regression (no noise band), and
     any change at all in the 2PC counters is surfaced as a note. *)
  let shard_key (h : shard_cell) =
    Printf.sprintf "%s@%d" h.h_pattern h.h_shards
  in
  let cur_shard = index_by shard_key current.s_shard in
  let base_shard = index_by shard_key baseline.s_shard in
  List.iter
    (fun (b : shard_cell) ->
      match Hashtbl.find_opt cur_shard (shard_key b) with
      | None -> note "shard cell %s only in baseline" (shard_key b)
      | Some c ->
          classify
            ~metric:(Printf.sprintf "shard %s throughput" (shard_key b))
            ~base:b.h_throughput ~cur:c.h_throughput
            ~slowdown:
              (if c.h_throughput <= 0.0 then Float.nan
               else b.h_throughput /. c.h_throughput)
            ~noisy:false;
          if
            b.h_xshard_commits <> c.h_xshard_commits
            || b.h_prepares <> c.h_prepares
          then
            note
              "shard cell %s 2PC counters changed: xshard_commits %d -> %d, \
               prepares %d -> %d"
              (shard_key b) b.h_xshard_commits c.h_xshard_commits
              b.h_prepares c.h_prepares)
    baseline.s_shard;
  List.iter
    (fun (c : shard_cell) ->
      if not (Hashtbl.mem base_shard (shard_key c)) then
        note "shard cell %s only in current snapshot" (shard_key c))
    current.s_shard;
  (* latency cells: match by (algo, shards).  Simulated quantiles from a
     fixed seed, fully deterministic — growth past the threshold is a
     semantic regression (no noise band); the committed-transaction count
     changing is surfaced as a note. *)
  let lat_key (l : latency_cell) = Printf.sprintf "%s@%d" l.l_algo l.l_shards in
  let cur_lat = index_by lat_key current.s_latency in
  let base_lat = index_by lat_key baseline.s_latency in
  List.iter
    (fun (b : latency_cell) ->
      match Hashtbl.find_opt cur_lat (lat_key b) with
      | None -> note "latency cell %s only in baseline" (lat_key b)
      | Some c ->
          List.iter
            (fun (qname, bq, cq) ->
              classify
                ~metric:(Printf.sprintf "latency %s %s" (lat_key b) qname)
                ~base:bq ~cur:cq
                ~slowdown:(if bq <= 0.0 then Float.nan else cq /. bq)
                ~noisy:false)
            [
              ("p50", b.l_p50, c.l_p50);
              ("p95", b.l_p95, c.l_p95);
              ("p99", b.l_p99, c.l_p99);
            ];
          if b.l_xacts <> c.l_xacts then
            note "latency cell %s population changed: %d -> %d xacts"
              (lat_key b) b.l_xacts c.l_xacts)
    baseline.s_latency;
  List.iter
    (fun (c : latency_cell) ->
      if not (Hashtbl.mem base_lat (lat_key c)) then
        note "latency cell %s only in current snapshot" (lat_key c))
    current.s_latency;
  (* causal cells: match by (algo, shards).  Message amplification from a
     fixed seed, fully deterministic — growth past the threshold is a
     semantic regression (the protocol started sending more messages per
     commit; no noise band); a commit-count change is surfaced as a
     note. *)
  let causal_key (z : causal_cell) =
    Printf.sprintf "%s@%d" z.z_algo z.z_shards
  in
  let cur_causal = index_by causal_key current.s_causal in
  let base_causal = index_by causal_key baseline.s_causal in
  List.iter
    (fun (b : causal_cell) ->
      match Hashtbl.find_opt cur_causal (causal_key b) with
      | None -> note "causal cell %s only in baseline" (causal_key b)
      | Some c ->
          List.iter
            (fun (qname, bq, cq) ->
              classify
                ~metric:(Printf.sprintf "causal %s %s" (causal_key b) qname)
                ~base:bq ~cur:cq
                ~slowdown:(if bq <= 0.0 then Float.nan else cq /. bq)
                ~noisy:false)
            [
              ("msgs_per_commit", b.z_msgs_per_commit, c.z_msgs_per_commit);
              ("bytes_per_commit", b.z_bytes_per_commit, c.z_bytes_per_commit);
            ];
          if b.z_commits <> c.z_commits then
            note "causal cell %s population changed: %d -> %d commits"
              (causal_key b) b.z_commits c.z_commits)
    baseline.s_causal;
  List.iter
    (fun (c : causal_cell) ->
      if not (Hashtbl.mem base_causal (causal_key c)) then
        note "causal cell %s only in current snapshot" (causal_key c))
    current.s_causal;
  (* engine probe: events/sec, lower = worse; heap high-water, higher =
     worse (a space regression) *)
  (match (baseline.s_engine, current.s_engine) with
  | Some b, Some c ->
      let b_eps = events_per_sec ~events:b.p_events ~wall_s:b.p_wall_s in
      let c_eps = events_per_sec ~events:c.p_events ~wall_s:c.p_wall_s in
      classify ~metric:"engine events_per_sec" ~base:b_eps ~cur:c_eps
        ~slowdown:(if c_eps <= 0.0 then Float.nan else b_eps /. c_eps)
        ~noisy:false;
      classify ~metric:"engine heap_hwm" ~base:(float_of_int b.p_heap_hwm)
        ~cur:(float_of_int c.p_heap_hwm)
        ~slowdown:
          (if b.p_heap_hwm <= 0 then Float.nan
           else float_of_int c.p_heap_hwm /. float_of_int b.p_heap_hwm)
        ~noisy:false
  | Some _, None -> note "engine probe only in baseline"
  | None, Some _ -> note "engine probe only in current snapshot"
  | None, None -> ());
  {
    v_threshold = threshold;
    v_regressions = List.rev !regressions;
    v_improvements = List.rev !improvements;
    v_notes = List.rev !notes;
  }

let pp_finding fmt f =
  Format.fprintf fmt "%-40s %14.1f -> %14.1f  (%.2fx)" f.f_metric f.f_base
    f.f_cur f.f_slowdown

let pp_verdict fmt v =
  List.iter (fun n -> Format.fprintf fmt "note: %s@." n) v.v_notes;
  List.iter
    (fun f -> Format.fprintf fmt "improvement: %a@." pp_finding f)
    v.v_improvements;
  List.iter
    (fun f -> Format.fprintf fmt "REGRESSION:  %a@." pp_finding f)
    v.v_regressions;
  if ok v then
    Format.fprintf fmt "bench-diff: ok (no regression beyond %.0f%%)@."
      (100.0 *. v.v_threshold)
  else
    Format.fprintf fmt
      "bench-diff: %d regression(s) beyond the %.0f%% threshold@."
      (List.length v.v_regressions)
      (100.0 *. v.v_threshold)
