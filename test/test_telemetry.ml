(* Tests for Experiments.Telemetry: snapshot JSON round-trip through the
   in-repo parser and the noise-aware bench-diff comparison. *)

let case name f = Alcotest.test_case name `Quick f

open Experiments.Telemetry

let snap () =
  {
    s_schema = schema_version;
    s_repro = "# repro: seed=42 jobs=2 git=abc-dirty ocaml=5.1.1 host=vm";
    s_git = "abc-dirty";
    s_ocaml = "5.1.1";
    s_host = "vm";
    s_seed = 42;
    s_jobs = 2;
    s_reps = 3;
    s_quick = true;
    s_experiments =
      [
        { e_id = "fig9"; e_wall_s = 1.5; e_sims = 10; e_events = 1_000_000 };
        { e_id = "acl"; e_wall_s = 0.8; e_sims = 4; e_events = 400_000 };
      ];
    s_micro =
      [
        {
          m_name = "lock \"table\": 10k req\\rel";
          m_runs = 5;
          m_median_ns = 1000.0;
          m_ci_lo_ns = 900.0;
          m_ci_hi_ns = 1100.0;
        };
      ];
    s_sweep =
      [
        {
          w_clients = 1_000;
          w_algo = "2PL inter";
          w_events = 2_000_000;
          w_wall_s = 1.0;
          w_heap_hwm = 5_000;
          w_live_words_per_client = Some 510;
        };
        {
          w_clients = 100_000;
          w_algo = "2PL inter";
          w_events = 2_000_000;
          w_wall_s = 1.3;
          w_heap_hwm = 400_000;
          w_live_words_per_client = None;
        };
      ];
    s_shard =
      [
        {
          h_shards = 1;
          h_pattern = "uniform";
          h_throughput = 40.0;
          h_xshard_commits = 0;
          h_prepares = 0;
        };
        {
          h_shards = 4;
          h_pattern = "zipf-hot";
          h_throughput = 55.0;
          h_xshard_commits = 120;
          h_prepares = 260;
        };
      ];
    s_latency =
      [
        {
          l_algo = "2PL";
          l_shards = 1;
          l_p50 = 0.25;
          l_p95 = 0.75;
          l_p99 = 1.0;
          l_mean = 0.3;
          l_xacts = 350;
        };
        {
          l_algo = "callback";
          l_shards = 2;
          l_p50 = 0.3;
          l_p95 = 0.9;
          l_p99 = 1.25;
          l_mean = 0.35;
          l_xacts = 350;
        };
      ];
    s_causal =
      [
        {
          z_algo = "2PL";
          z_shards = 1;
          z_msgs_per_commit = 10.5;
          z_pkts_per_commit = 12.0;
          z_bytes_per_commit = 42_000.0;
          z_commits = 350;
        };
        {
          z_algo = "2PL";
          z_shards = 4;
          z_msgs_per_commit = 19.25;
          z_pkts_per_commit = 22.5;
          z_bytes_per_commit = 61_500.0;
          z_commits = 350;
        };
      ];
    s_engine = Some { p_wall_s = 0.5; p_events = 200_000; p_heap_hwm = 123 };
  }

let test_json_roundtrip () =
  let s = snap () in
  let json = to_json s in
  (match Obs.Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot json invalid: %s" e);
  match of_json json with
  | Ok s' -> Alcotest.(check bool) "round-trips exactly" true (s = s')
  | Error e -> Alcotest.failf "parse back failed: %s" e

let test_json_roundtrip_no_engine () =
  let s = { (snap ()) with s_engine = None; s_micro = []; s_quick = false } in
  match of_json (to_json s) with
  | Ok s' -> Alcotest.(check bool) "engine=null round-trips" true (s = s')
  | Error e -> Alcotest.failf "parse back failed: %s" e

(* Snapshots written before the sweep section existed have no "sweep"
   field at all; they must still parse, as an empty sweep. *)
let remove_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  Option.map
    (fun i -> String.sub s 0 i ^ String.sub s (i + m) (n - i - m))
    (find 0)

let test_sweep_section_is_additive () =
  let s = { (snap ()) with s_sweep = [] } in
  let json = to_json s in
  match remove_substring ~sub:"  \"sweep\": [],\n" json with
  | None -> Alcotest.fail "fixture could not remove the sweep section"
  | Some legacy -> (
      match of_json legacy with
      | Ok s' ->
          Alcotest.(check bool) "parses as empty sweep" true (s'.s_sweep = [])
      | Error e -> Alcotest.failf "legacy snapshot rejected: %s" e)

(* Sweep cells written before the sweep reported the live heap per
   client have no such field; they must parse, with the field [None]. *)
let test_sweep_live_words_optional () =
  let json = to_json (snap ()) in
  match remove_substring ~sub:", \"live_words_per_client\": 510" json with
  | None -> Alcotest.fail "fixture has no live_words_per_client field"
  | Some legacy -> (
      match of_json legacy with
      | Ok s' ->
          Alcotest.(check (list (option int)))
            "absent field parses as None" [ None; None ]
            (List.map (fun w -> w.w_live_words_per_client) s'.s_sweep)
      | Error e -> Alcotest.failf "legacy sweep cell rejected: %s" e)

(* Same story for the shard-sweep section, added a schema generation
   later still. *)
let test_shard_section_is_additive () =
  let s = { (snap ()) with s_shard = [] } in
  let json = to_json s in
  match remove_substring ~sub:"  \"shard_sweep\": [],\n" json with
  | None -> Alcotest.fail "fixture could not remove the shard section"
  | Some legacy -> (
      match of_json legacy with
      | Ok s' ->
          Alcotest.(check bool) "parses as empty shard sweep" true
            (s'.s_shard = [])
      | Error e -> Alcotest.failf "legacy snapshot rejected: %s" e)

(* And for the latency section, the youngest addition. *)
let test_latency_section_is_additive () =
  let s = { (snap ()) with s_latency = [] } in
  let json = to_json s in
  match remove_substring ~sub:"  \"latency\": [],\n" json with
  | None -> Alcotest.fail "fixture could not remove the latency section"
  | Some legacy -> (
      match of_json legacy with
      | Ok s' ->
          Alcotest.(check bool) "parses as empty latency" true
            (s'.s_latency = [])
      | Error e -> Alcotest.failf "legacy snapshot rejected: %s" e)

(* And for the causal message-amplification section, younger still. *)
let test_causal_section_is_additive () =
  let s = { (snap ()) with s_causal = [] } in
  let json = to_json s in
  match remove_substring ~sub:"  \"causal\": [],\n" json with
  | None -> Alcotest.fail "fixture could not remove the causal section"
  | Some legacy -> (
      match of_json legacy with
      | Ok s' ->
          Alcotest.(check bool) "parses as empty causal" true
            (s'.s_causal = [])
      | Error e -> Alcotest.failf "legacy snapshot rejected: %s" e)

let test_of_json_rejects () =
  (match of_json "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  let wrong_schema =
    { (snap ()) with s_schema = "ccsim-bench/999" } |> to_json
  in
  (match of_json wrong_schema with
  | Error e ->
      Alcotest.(check bool) "schema named in error" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "wrong schema accepted");
  match of_json "{\"schema\": \"ccsim-bench/1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted"

let test_diff_identical_ok () =
  let s = snap () in
  let v = diff ~baseline:s ~current:s () in
  Alcotest.(check bool) "ok" true (ok v);
  Alcotest.(check int) "no regressions" 0 (List.length v.v_regressions);
  Alcotest.(check int) "no improvements" 0 (List.length v.v_improvements);
  Alcotest.(check int) "no notes" 0 (List.length v.v_notes)

(* The acceptance fixture: double every timing and the diff must flag
   experiments, microbenches (CIs scaled along, so no overlap), and the
   engine probe, and exit non-ok. *)
let test_diff_flags_2x_slowdown () =
  let s = snap () in
  let slow =
    {
      s with
      s_experiments =
        List.map (fun e -> { e with e_wall_s = e.e_wall_s *. 2.0 }) s.s_experiments;
      s_micro =
        List.map
          (fun m ->
            {
              m with
              m_median_ns = m.m_median_ns *. 2.0;
              m_ci_lo_ns = m.m_ci_lo_ns *. 2.0;
              m_ci_hi_ns = m.m_ci_hi_ns *. 2.0;
            })
          s.s_micro;
      s_engine =
        Option.map (fun p -> { p with p_wall_s = p.p_wall_s *. 2.0 }) s.s_engine;
    }
  in
  let v = diff ~baseline:s ~current:slow () in
  Alcotest.(check bool) "regression detected" false (ok v);
  (* 2 experiments + 1 micro + engine events/sec *)
  Alcotest.(check int) "all four metrics flagged" 4
    (List.length v.v_regressions);
  List.iter
    (fun f ->
      Alcotest.(check (float 1e-9))
        (f.f_metric ^ " slowdown ratio")
        2.0 f.f_slowdown)
    v.v_regressions;
  (* the mirror diff reports the same metrics as improvements and is ok *)
  let v' = diff ~baseline:slow ~current:s () in
  Alcotest.(check bool) "speedup is ok" true (ok v');
  Alcotest.(check int) "improvements" 4 (List.length v'.v_improvements)

let test_diff_ci_overlap_is_noise () =
  let s = snap () in
  (* median doubles but the intervals overlap: not a regression *)
  let noisy =
    {
      s with
      s_micro =
        List.map
          (fun m -> { m with m_median_ns = 2000.0; m_ci_hi_ns = 2500.0 })
          s.s_micro;
    }
  in
  let v = diff ~baseline:s ~current:noisy () in
  Alcotest.(check bool) "overlapping CIs never regress" true (ok v)

let test_diff_jitter_floor () =
  let s = { (snap ()) with s_micro = []; s_engine = None } in
  let tiny =
    {
      s with
      s_experiments =
        List.map (fun e -> { e with e_wall_s = 0.004 }) s.s_experiments;
    }
  in
  let slower =
    {
      tiny with
      s_experiments =
        List.map (fun e -> { e with e_wall_s = 0.04 }) tiny.s_experiments;
    }
  in
  (* 10x slower but both sides sit under the 50 ms jitter floor *)
  let v = diff ~baseline:tiny ~current:slower () in
  Alcotest.(check bool) "sub-jitter cells ignored" true (ok v)

(* Sweep cells: losing events/sec or growing the event heap past the
   threshold regresses; sub-jitter walls are noise; a cell present on one
   side only is a note. *)
let test_diff_sweep_cells () =
  let s = snap () in
  let slow =
    {
      s with
      s_sweep =
        List.map (fun w -> { w with w_wall_s = w.w_wall_s *. 2.0 }) s.s_sweep;
    }
  in
  let v = diff ~baseline:s ~current:slow () in
  Alcotest.(check bool) "eps regression detected" false (ok v);
  Alcotest.(check int) "one finding per cell" (List.length s.s_sweep)
    (List.length v.v_regressions);
  let bloated =
    {
      s with
      s_sweep =
        List.map (fun w -> { w with w_heap_hwm = w.w_heap_hwm * 3 }) s.s_sweep;
    }
  in
  let v' = diff ~baseline:s ~current:bloated () in
  Alcotest.(check bool) "heap regression detected" false (ok v');
  let tiny w = { w with w_wall_s = 0.002 } in
  let v'' =
    diff
      ~baseline:{ s with s_sweep = List.map tiny s.s_sweep }
      ~current:
        { s with s_sweep = List.map (fun w -> { (tiny w) with w_wall_s = 0.02 }) s.s_sweep }
      ()
  in
  Alcotest.(check bool) "sub-jitter sweep cells ignored" true (ok v'');
  let v''' = diff ~baseline:s ~current:{ s with s_sweep = [] } () in
  Alcotest.(check bool) "missing cells are notes, not failures" true (ok v''');
  Alcotest.(check int) "one note per missing cell" (List.length s.s_sweep)
    (List.length v'''.v_notes)

(* Shard cells are deterministic figures: a throughput drop past the
   threshold regresses with no noise band, any 2PC-counter drift is a
   note, and a cell on one side only is a note. *)
let test_diff_shard_cells () =
  let s = snap () in
  let slow =
    {
      s with
      s_shard =
        List.map
          (fun h -> { h with h_throughput = h.h_throughput /. 2.0 })
          s.s_shard;
    }
  in
  let v = diff ~baseline:s ~current:slow () in
  Alcotest.(check bool) "throughput regression detected" false (ok v);
  Alcotest.(check int) "one finding per cell" (List.length s.s_shard)
    (List.length v.v_regressions);
  let drifted =
    {
      s with
      s_shard =
        List.map
          (fun h -> { h with h_xshard_commits = h.h_xshard_commits + 1 })
          s.s_shard;
    }
  in
  let v' = diff ~baseline:s ~current:drifted () in
  Alcotest.(check bool) "counter drift is a note, not a failure" true (ok v');
  Alcotest.(check int) "one note per drifted cell" (List.length s.s_shard)
    (List.length v'.v_notes);
  let v'' = diff ~baseline:s ~current:{ s with s_shard = [] } () in
  Alcotest.(check bool) "missing cells are notes, not failures" true (ok v'');
  Alcotest.(check int) "one note per missing cell" (List.length s.s_shard)
    (List.length v''.v_notes)

(* Latency cells: deterministic simulated quantiles — growth past the
   threshold regresses with no noise band, population drift is a note,
   and a cell on one side only is a note. *)
let test_diff_latency_cells () =
  let s = snap () in
  let slow =
    {
      s with
      s_latency =
        List.map (fun l -> { l with l_p95 = l.l_p95 *. 2.0 }) s.s_latency;
    }
  in
  let v = diff ~baseline:s ~current:slow () in
  Alcotest.(check bool) "latency regression detected" false (ok v);
  Alcotest.(check int) "one finding per doubled quantile"
    (List.length s.s_latency)
    (List.length v.v_regressions);
  let drifted =
    {
      s with
      s_latency = List.map (fun l -> { l with l_xacts = l.l_xacts + 5 }) s.s_latency;
    }
  in
  let v' = diff ~baseline:s ~current:drifted () in
  Alcotest.(check bool) "population drift is a note, not a failure" true
    (ok v');
  Alcotest.(check int) "one note per drifted cell" (List.length s.s_latency)
    (List.length v'.v_notes);
  let v'' = diff ~baseline:s ~current:{ s with s_latency = [] } () in
  Alcotest.(check bool) "missing cells are notes, not failures" true (ok v'');
  Alcotest.(check int) "one note per missing cell" (List.length s.s_latency)
    (List.length v''.v_notes)

(* Causal cells: deterministic message-amplification ratios — growth past
   the threshold regresses with no noise band, commit-count drift is a
   note, and a cell on one side only is a note. *)
let test_diff_causal_cells () =
  let s = snap () in
  let amplified =
    {
      s with
      s_causal =
        List.map
          (fun z -> { z with z_msgs_per_commit = z.z_msgs_per_commit *. 2.0 })
          s.s_causal;
    }
  in
  let v = diff ~baseline:s ~current:amplified () in
  Alcotest.(check bool) "amplification regression detected" false (ok v);
  Alcotest.(check int) "one finding per doubled ratio"
    (List.length s.s_causal)
    (List.length v.v_regressions);
  let drifted =
    {
      s with
      s_causal =
        List.map (fun z -> { z with z_commits = z.z_commits + 5 }) s.s_causal;
    }
  in
  let v' = diff ~baseline:s ~current:drifted () in
  Alcotest.(check bool) "commit drift is a note, not a failure" true (ok v');
  Alcotest.(check int) "one note per drifted cell" (List.length s.s_causal)
    (List.length v'.v_notes);
  let v'' = diff ~baseline:s ~current:{ s with s_causal = [] } () in
  Alcotest.(check bool) "missing cells are notes, not failures" true (ok v'');
  Alcotest.(check int) "one note per missing cell" (List.length s.s_causal)
    (List.length v''.v_notes)

let test_diff_threshold_and_notes () =
  let s = snap () in
  let mild =
    {
      s with
      s_host = "other-host";
      s_ocaml = "5.2.0";
      s_experiments =
        List.map (fun e -> { e with e_wall_s = e.e_wall_s *. 1.2 }) s.s_experiments;
      s_micro = [];
      s_engine = None;
    }
  in
  (* 20 % slowdown passes the default 25 % threshold... *)
  let v = diff ~baseline:s ~current:mild () in
  Alcotest.(check bool) "within threshold" true (ok v);
  Alcotest.(check bool) "host/compiler mismatch noted" true
    (List.length v.v_notes >= 2);
  (* ...and fails a 10 % one *)
  let v' = diff ~threshold:0.1 ~baseline:s ~current:mild () in
  Alcotest.(check bool) "tighter threshold trips" false (ok v')

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          case "round-trip + validator" test_json_roundtrip;
          case "engine=null round-trip" test_json_roundtrip_no_engine;
          case "sweep section is additive" test_sweep_section_is_additive;
          case "sweep live words optional" test_sweep_live_words_optional;
          case "shard section is additive" test_shard_section_is_additive;
          case "latency section is additive" test_latency_section_is_additive;
          case "causal section is additive" test_causal_section_is_additive;
          case "rejects malformed input" test_of_json_rejects;
        ] );
      ( "diff",
        [
          case "identical snapshots ok" test_diff_identical_ok;
          case "2x slowdown flagged" test_diff_flags_2x_slowdown;
          case "ci overlap is noise" test_diff_ci_overlap_is_noise;
          case "jitter floor" test_diff_jitter_floor;
          case "sweep cells" test_diff_sweep_cells;
          case "shard cells" test_diff_shard_cells;
          case "latency cells" test_diff_latency_cells;
          case "causal cells" test_diff_causal_cells;
          case "threshold + mismatch notes" test_diff_threshold_and_notes;
        ] );
    ]
