open Exp_defs

let metric_name = function
  | Response_time -> "response time (s)"
  | Throughput -> "throughput (commits/s)"

(* Every cell prints its value with a 95 % replication confidence
   half-width: "3.912 ±0.135" at reps >= 2, "3.912 ±n/a" at reps = 1
   (a single replication carries no dispersion information). *)
let cell_string m r =
  Printf.sprintf "%.3f ±%s" (metric_value m r)
    (Obs.Run_stats.half_string (metric_ci m r))

(* A cell that stopped before its commit target describes a wedged or
   truncated run; its numbers must not pass for a result. *)
let short_string ~target (r : Core.Simulator.result) =
  if r.stop = Core.Simulator.Target_reached then None
  else Some (Printf.sprintf "short %d/%d" r.commits target)

let figure_cis (fig : figure) =
  List.concat_map
    (fun s -> List.map (fun (_, r) -> metric_ci fig.metric r) s.points)
    fig.series

(* Index a series' points by x once.  The row loops below probe every
   (x, series) cell; List.assoc_opt there rescanned the point list per
   cell, quadratic in the axis length.  First binding wins, matching
   List.assoc_opt on the raw list. *)
let points_table s =
  let h = Hashtbl.create (max 8 (List.length s.points)) in
  List.iter
    (fun (x, r) -> if not (Hashtbl.mem h x) then Hashtbl.add h x r)
    s.points;
  h

let series_tables fig = List.map (fun s -> (s, points_table s)) fig.series

let print_figure ?(detail = false) ~target fmt (fig : figure) =
  Format.fprintf fmt "@.== %s: %s ==@." fig.fig_id fig.title;
  Format.fprintf fmt "   metric: %s@." (metric_name fig.metric);
  let labels = List.map (fun s -> s.label) fig.series in
  Format.fprintf fmt "   %-8s" fig.xlabel;
  List.iter (Format.fprintf fmt " %16s") labels;
  Format.fprintf fmt "@.";
  let xs =
    match fig.series with [] -> [] | s :: _ -> List.map fst s.points
  in
  let tables = series_tables fig in
  List.iter
    (fun x ->
      Format.fprintf fmt "   %-8g" x;
      List.iter
        (fun (_, tbl) ->
          match Hashtbl.find_opt tbl x with
          | Some r ->
              Format.fprintf fmt " %16s"
                (Option.value (short_string ~target r)
                   ~default:(cell_string fig.metric r))
          | None -> Format.fprintf fmt " %16s" "-")
        tables;
      Format.fprintf fmt "@.")
    xs;
  (match Obs.Run_stats.pooled_rel_half_width (figure_cis fig) with
  | Some rel ->
      Format.fprintf fmt
        "   pooled 95%% CI half-width: ±%.1f%% of the cell means@."
        (100.0 *. rel)
  | None -> ());
  if detail then begin
    Format.fprintf fmt "   -- per-cell detail (aborts | hit ratio | msgs/commit)@.";
    List.iter
      (fun x ->
        Format.fprintf fmt "   %-8g" x;
        List.iter
          (fun (_, tbl) ->
            match Hashtbl.find_opt tbl x with
            | Some r -> (
                match short_string ~target r with
                | Some s -> Format.fprintf fmt " %14s" s
                | None ->
                    Format.fprintf fmt " %4d %4.2f %5.1f"
                      r.Core.Simulator.aborts r.Core.Simulator.hit_ratio
                      r.Core.Simulator.msgs_per_commit)
            | None -> Format.fprintf fmt " %14s" "-")
          tables;
        Format.fprintf fmt "@.")
      xs
  end

let print_decision_map fmt (m : Suite.decision_map) =
  Format.fprintf fmt
    "@.== fig13: best algorithm by locality and write probability (50 \
     clients) ==@.";
  Format.fprintf fmt "   %-8s" "pw\\loc";
  List.iter (Format.fprintf fmt " %10.2f") m.Suite.localities;
  Format.fprintf fmt "@.";
  List.iteri
    (fun i pw ->
      Format.fprintf fmt "   %-8.2f" pw;
      Array.iter (Format.fprintf fmt " %10s") m.Suite.winners.(i);
      Format.fprintf fmt "@.")
    m.Suite.write_probs

let print_output ?detail ~target fmt = function
  | Suite.Figures figs -> List.iter (print_figure ?detail ~target fmt) figs
  | Suite.Map m -> print_decision_map fmt m

(* RFC-4180 quoting: free-text fields (figure ids, series labels) may
   contain commas or quotes and must not shift the column layout *)
let csv_field s =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  in
  if not needs_quoting then s
  else
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

let figure_csv (fig : figure) =
  let header =
    "fig_id,metric,x,algorithm,value,ci_lo,ci_hi,aborts,hit_ratio,msgs_per_commit,stop"
  in
  let rows =
    List.concat_map
      (fun s ->
        List.map
          (fun (x, r) ->
            let ci = metric_ci fig.metric r in
            (* empty ci fields at reps = 1: the interval does not exist,
               and an empty field is more honest than a fake 0-width one *)
            let lo, hi =
              if Obs.Run_stats.available ci then
                ( Printf.sprintf "%.4f" (Obs.Run_stats.ci_lo ci),
                  Printf.sprintf "%.4f" (Obs.Run_stats.ci_hi ci) )
              else ("", "")
            in
            Printf.sprintf "%s,%s,%g,%s,%.4f,%s,%s,%d,%.3f,%.2f,%s"
              (csv_field fig.fig_id)
              (match fig.metric with
              | Response_time -> "response"
              | Throughput -> "throughput")
              x (csv_field s.label)
              (metric_value fig.metric r)
              lo hi r.Core.Simulator.aborts r.Core.Simulator.hit_ratio
              r.Core.Simulator.msgs_per_commit
              (Core.Simulator.stop_label r.Core.Simulator.stop))
          s.points)
      fig.series
  in
  header :: rows

(* One-line provenance header for experiment output, so a printed figure
   can be traced back to the exact run that produced it. *)
let git_describe () =
  let tmp = Filename.temp_file "ccsim" ".git" in
  let cmd =
    Printf.sprintf "git describe --always --dirty >%s 2>/dev/null"
      (Filename.quote tmp)
  in
  let out =
    if Sys.command cmd = 0 then (
      let ic = open_in tmp in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      line)
    else ""
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  if out = "" then "unknown" else out

(* Hostname without a unix dependency: the kernel's view first (Linux),
   then the environment, so outputs from different machines are
   distinguishable. *)
let hostname () =
  let from_proc =
    try
      let ic = open_in "/proc/sys/kernel/hostname" in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      line
    with Sys_error _ -> None
  in
  match from_proc with
  | Some h when h <> "" -> h
  | _ -> (
      match Sys.getenv_opt "HOSTNAME" with
      | Some h when h <> "" -> h
      | _ -> "unknown")

let repro_line ~seed ~jobs =
  Printf.sprintf "# repro: seed=%d jobs=%d git=%s ocaml=%s host=%s" seed jobs
    (git_describe ()) Sys.ocaml_version (hostname ())

let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    id

let write_gnuplot ~dir (fig : figure) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base = sanitize fig.fig_id in
  let dat = Filename.concat dir (base ^ ".dat") in
  let gp = Filename.concat dir (base ^ ".gp") in
  (* two columns per series — value and 95 % CI half-width (0 when the
     interval is unavailable, i.e. reps = 1) — so the script can draw
     error bars *)
  let has_ci =
    List.exists
      (fun s ->
        List.exists
          (fun (_, r) -> Obs.Run_stats.available (metric_ci fig.metric r))
          s.points)
      fig.series
  in
  let oc = open_out dat in
  Printf.fprintf oc "# %s — %s\n# %s" fig.fig_id fig.title fig.xlabel;
  List.iter
    (fun s -> Printf.fprintf oc "\t%S\t%S" s.label (s.label ^ " ±"))
    fig.series;
  output_char oc '\n';
  let xs = match fig.series with [] -> [] | s :: _ -> List.map fst s.points in
  let tables = series_tables fig in
  List.iter
    (fun x ->
      Printf.fprintf oc "%g" x;
      List.iter
        (fun (_, tbl) ->
          match Hashtbl.find_opt tbl x with
          | Some r ->
              let ci = metric_ci fig.metric r in
              let half =
                if Obs.Run_stats.available ci then ci.Obs.Run_stats.ci_half
                else 0.0
              in
              Printf.fprintf oc "\t%.6f\t%.6f"
                (metric_value fig.metric r)
                half
          | None -> output_string oc "\t-\t-")
        tables;
      output_char oc '\n')
    xs;
  close_out oc;
  let oc = open_out gp in
  Printf.fprintf oc
    "set terminal pngcairo size 720,480\nset output %S\nset title %S\n\
     set xlabel %S\nset ylabel %S\nset key top left\nset grid\nplot \\\n"
    (base ^ ".png") fig.title fig.xlabel (metric_name fig.metric);
  List.iteri
    (fun i s ->
      let vcol = 2 + (2 * i) in
      if has_ci then
        Printf.fprintf oc "  %S using 1:%d:%d with yerrorlines title %S%s\n"
          (base ^ ".dat") vcol (vcol + 1) s.label
          (if i = List.length fig.series - 1 then "" else ", \\")
      else
        Printf.fprintf oc "  %S using 1:%d with linespoints title %S%s\n"
          (base ^ ".dat") vcol s.label
          (if i = List.length fig.series - 1 then "" else ", \\"))
    fig.series;
  close_out oc;
  gp
