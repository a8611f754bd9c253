type fac_snapshot = {
  fac_name : string;
  fac_capacity : int;
  fac_utilization : float;
  fac_mean_queue : float;
  fac_max_queue : int;
  fac_busy_time : float;
  fac_completions : int;
}

let snapshot_facility f =
  {
    fac_name = Sim.Facility.name f;
    fac_capacity = Sim.Facility.capacity f;
    fac_utilization = Sim.Facility.utilization f;
    fac_mean_queue = Sim.Facility.mean_queue_length f;
    fac_max_queue = Sim.Facility.max_queue_length f;
    fac_busy_time = Sim.Facility.busy_time f;
    fac_completions = Sim.Facility.completions f;
  }

type rep = {
  rep_seed : int;
  trace : Recorder.entry array;
  trace_dropped : int;
  series : Series.t option;
  facilities : fac_snapshot list;
  profile : Sim.Engine.profile option;
  spans : Span.entry array;
  spans_dropped : int;
  metrics : Metrics.t option;
  causal : Causal.entry array;
  causal_dropped : int;
}

type t = { reps : rep list }

let merge runs = { reps = List.concat_map (fun r -> r.reps) runs }

(* Replications are concatenated in seed order and each rep's entries are
   already sorted by (time, seq), so the merged trace is a deterministic
   function of the spec — identical at any [-j]. *)
let merged_trace t =
  let parts = List.mapi (fun i r -> Array.map (fun e -> (i, e)) r.trace) t.reps in
  Array.concat parts

(* Same discipline for spans: rep-tagged, in seed order. *)
let merged_spans t =
  let parts = List.mapi (fun i r -> Array.map (fun e -> (i, e)) r.spans) t.reps in
  Array.concat parts

(* And for causal message records. *)
let merged_causal t =
  let parts =
    List.mapi (fun i r -> Array.map (fun e -> (i, e)) r.causal) t.reps
  in
  Array.concat parts

(* One registry for the whole run: counters and histogram buckets add
   exactly; the fold runs in seed order, so the merged artifact is a
   deterministic function of the spec at any [-j]. *)
let merged_metrics t =
  match List.filter_map (fun r -> r.metrics) t.reps with
  | [] -> None
  | ms -> Some (Metrics.merge ms)

let total_spans t =
  List.fold_left (fun a r -> a + Array.length r.spans) 0 t.reps

let causal_dropped t =
  List.fold_left (fun a r -> a + r.causal_dropped) 0 t.reps

let wrapped t =
  let sum f = List.fold_left (fun a r -> a + f r) 0 t.reps in
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("trace", sum (fun r -> r.trace_dropped));
      ("span", sum (fun r -> r.spans_dropped));
      ("causal", causal_dropped t);
    ]

let pp_fac_snapshot fmt f =
  Format.fprintf fmt
    "%-14s cap=%-2d util=%.3f mean-q=%.3f max-q=%-4d busy=%.1fs done=%d"
    f.fac_name f.fac_capacity f.fac_utilization f.fac_mean_queue f.fac_max_queue
    f.fac_busy_time f.fac_completions
