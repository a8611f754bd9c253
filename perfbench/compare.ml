(* perf.exe --compare PARENT CHANGE: the decision rule for a change that
   claims a gain or must show no regression.

   Each file holds the JSON lines that --out appends, one per run.  For
   every workload and metric the report gives each side's median and
   quartiles and the share of seed-matched pairs the change wins (ties
   count for neither).  An end-to-end metric is

   - a REGRESSION when the change's median is worse than the parent's by
     more than the metric's bound;
   - unresolved when either side's spread (interquartile distance over
     median) exceeds the bound, unless every change run beats every
     parent run;
   - a gain when the change wins at least nine tenths of the pairs and
     the medians differ by more than the parent's interquartile distance.

   More failed operations on the change side is a regression too.  The
   exit code is 1 when anything regressed. *)

(* Order statistics over a handful of runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the rule of Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   spreads computed here and by a Python reader agree. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

type run = {
  workload : string;
  seed : int;
  failed : int;
  values : (string * float) list;
}

let load path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j =
           match Obs.Export.parse_json line with
           | Ok j -> j
           | Error e -> failwith (Printf.sprintf "%s: %s" path e)
         in
         let get k j =
           match Obs.Export.member k j with
           | Some v -> v
           | None -> failwith (Printf.sprintf "%s: a run has no %S" path k)
         in
         let num k j =
           match get k j with Obs.Export.Num x -> x | _ -> nan
         in
         let result = get "result" j in
         {
           workload =
             (match get "workload" j with Obs.Export.Str s -> s | _ -> "?");
           seed = int_of_float (num "seed" j);
           failed = int_of_float (num "failed" result);
           values =
             (match get "metrics" result with
             | Obs.Export.Obj kvs ->
                 List.map (fun (name, m) -> (name, num "value" m)) kvs
             | _ -> []);
         })

let values runs name =
  List.filter_map
    (fun r -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.values))
    runs

let verdict (m : Benchfile.metric) parent change =
  let better a b = if m.Benchfile.higher_is_better then a > b else a < b in
  let pv = List.map snd parent and cv = List.map snd change in
  let pm = median pv and cm = median cv in
  let pairs =
    List.filter_map
      (fun (seed, p) -> Option.map (fun c -> (p, c)) (List.assoc_opt seed change))
      parent
  in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let n_pairs = List.length pairs in
  let q1, q3 = quartiles pv in
  let worse_by =
    (if m.Benchfile.higher_is_better then pm -. cm else cm -. pm) /. Float.abs pm
  in
  let label =
    match m.Benchfile.bound with
    | None -> ""
    | Some bound ->
        let all_better =
          List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv
        in
        if spread pv > bound || spread cv > bound then
          if all_better then "better" else "unresolved"
        else if worse_by > bound then "REGRESSION"
        else if
          n_pairs > 0
          && float_of_int wins >= 0.9 *. float_of_int n_pairs
          && Float.abs (cm -. pm) > q3 -. q1
        then "gain"
        else "no change"
  in
  (wins, n_pairs, label)

let run ~bench parent_file change_file =
  let parent = load parent_file and change = load change_file in
  let regressed = ref false in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  List.iter
    (fun w ->
      let side runs = List.filter (fun r -> r.workload = w) runs in
      let p = side parent and c = side change in
      let pf = List.fold_left (fun a r -> a + r.failed) 0 p
      and cf = List.fold_left (fun a r -> a + r.failed) 0 c in
      Printf.printf "\n== %s: %d parent runs, %d change runs, failed %d -> %d%s\n" w
        (List.length p) (List.length c) pf cf
        (if cf > pf then "  REGRESSION" else "");
      if cf > pf then regressed := true;
      Printf.printf "  %-36s %-34s %-34s %7s  %s\n" "metric"
        "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
      List.iter
        (fun (m : Benchfile.metric) ->
          match (values p m.Benchfile.name, values c m.Benchfile.name) with
          | [], _ | _, [] -> ()
          | pv, cv ->
              let wins, n, label = verdict m pv cv in
              if label = "REGRESSION" then regressed := true;
              let cell vs =
                let vs = List.map snd vs in
                let q1, q3 = quartiles vs in
                Printf.sprintf "%.6g [%.6g, %.6g]" (median vs) q1 q3
              in
              Printf.printf "  %-36s %-34s %-34s %3d/%-3d  %s\n"
                (m.Benchfile.name ^ " (" ^ m.Benchfile.unit_ ^ ")")
                (cell pv) (cell cv) wins n label)
        (bench.Benchfile.end_to_end @ bench.Benchfile.per_layer))
    workloads;
  if !regressed then begin
    print_endline "\nregression beyond a bound";
    exit 1
  end
  else print_endline "\nno regression beyond any bound"
