(* Cross-commit golden digests.

   Each cell below is one fixed-seed simulation; its digest pins commits,
   aborts, events executed, the exact bits of the final simulated time and
   messages sent.  The expected digests live in golden_digests.txt, which
   was written by an earlier build, so any change to event order, RNG
   consumption or protocol behaviour shows up here even when every other
   test (which compares runs within one build) stays green.

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

let plain ?(n_shards = 1) algo =
  let spec =
    Core.Simulator.default_spec ~seed:7 ~warmup_commits:20 ~measured_commits:300
      ~cfg:(Core.Sys_params.table5 ~n_clients:10 ())
      ~xact_params:
        (Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 ())
      algo
  in
  { spec with Core.Simulator.n_shards }

let cells =
  List.map (fun a -> (name a ^ "/1shard", plain a)) variants
  @ List.map
      (fun a -> (name a ^ "/4shards", plain ~n_shards:4 a))
      Core.Proto.[ Two_phase Inter; Callback; Certification Inter ]
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

let digest (label, spec) =
  let r = Shard.Shard_sim.run spec in
  Printf.sprintf "%s commits=%d aborts=%d events=%d sim_time_bits=%Ld messages=%d"
    label r.Core.Simulator.commits r.aborts r.events
    (Int64.bits_of_float r.sim_time)
    r.messages

let golden_file = "golden_digests.txt"

let read_golden () =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let label_of line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let test_cell ((label, _) as cell) () =
  match List.find_opt (fun l -> label_of l = label) (read_golden ()) with
  | None -> Alcotest.failf "%s: no digest in %s" label golden_file
  | Some expected -> Alcotest.(check string) label expected (digest cell)

let test_no_stale_rows () =
  Alcotest.(check (list string))
    "one golden row per cell, in cell order" (List.map fst cells)
    (List.map label_of (read_golden ()))

let () =
  if Array.mem "--print" Sys.argv then List.iter (fun c -> print_endline (digest c)) cells
  else
    Alcotest.run "golden"
      [
        ( "golden",
          Alcotest.test_case "rows match cells" `Quick test_no_stale_rows
          :: List.map
               (fun ((label, _) as c) -> Alcotest.test_case label `Quick (test_cell c))
               cells );
      ]
