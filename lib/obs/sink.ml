(* The one domain-local observability slot.

   A sink holds one run's channels — protocol trace, spans, causal
   record, metrics registry — each optional.  Every emitter reads the
   slot, finds its channel, and appends; with the channel absent it does
   nothing and returns the "no id" value (-1) where it returns an id, so
   instrumentation threads ids around unconditionally.

   The slot is domain-local, which is what makes observation safe under
   [Sim.Pool]: each worker domain installs its own sink around the
   simulation it runs, so buffers neither race nor see another domain's
   events, and the filled buffers travel back by value inside the run's
   result.  Emission only reads the clock it is handed — no holds, no
   randomness — so observing a run never changes it. *)

type t = {
  trace : Recorder.t option;
  spans : Span.t option;
  causal : Causal.t option;
  metrics : Metrics.t option;
}

let none = { trace = None; spans = None; causal = None; metrics = None }

let of_config (c : Config.t) =
  let on flag create = if flag then Some (create ()) else None in
  {
    trace = on c.Config.trace (Recorder.create ~limit:c.Config.limit);
    spans = on c.Config.spans (Span.create ~limit:c.Config.limit);
    causal = on c.Config.causal (Causal.create ~limit:c.Config.limit);
    metrics = on c.Config.metrics Metrics.create;
  }

let is_empty s =
  s.trace = None && s.spans = None && s.causal = None && s.metrics = None

let slot : t Domain.DLS.key = Domain.DLS.new_key (fun () -> none)
let current () = Domain.DLS.get slot

let with_ s f =
  let prev = current () in
  Domain.DLS.set slot s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f

(* ------------------------------------------------------------------ *)
(* Emitters                                                            *)
(* ------------------------------------------------------------------ *)

let trace_on () = Option.is_some (current ()).trace

let emit time ev =
  match (current ()).trace with None -> () | Some r -> Recorder.add r ~time ev

let spans_on () = Option.is_some (current ()).spans

let open_span ~time ~track ~kind ~parent ~xid =
  match (current ()).spans with
  | None -> -1
  | Some t -> Span.open_span t ~time ~track ~kind ~parent ~xid

let close_span ~time ?(ok = true) id =
  if id >= 0 then
    match (current ()).spans with
    | None -> ()
    | Some t -> Span.close_span t ~time ~ok id

let causal_on () = Option.is_some (current ()).causal

let root ~time ~client =
  match (current ()).causal with
  | None -> -1
  | Some t -> Causal.root t ~time ~client

let send ~time ~tag ~bytes ~pkts ~dup =
  match (current ()).causal with
  | None -> -1
  | Some t -> Causal.send t ~time ~tag ~bytes ~pkts ~dup

let recv ~time id =
  if id >= 0 then
    match (current ()).causal with
    | None -> ()
    | Some t -> Causal.recv t ~time id

let drop ~time id =
  if id >= 0 then
    match (current ()).causal with
    | None -> ()
    | Some t -> Causal.drop t ~time id

let finish ~time ~parent ~xid ~client ~ok =
  match (current ()).causal with
  | None -> ()
  | Some t -> Causal.finish t ~time ~parent ~xid ~client ~ok

let metrics_on () = Option.is_some (current ()).metrics

let incr name n =
  match (current ()).metrics with None -> () | Some m -> Metrics.incr m name n

let observe name v =
  match (current ()).metrics with
  | None -> ()
  | Some m -> Metrics.observe m name v
