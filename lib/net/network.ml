type params = { net_delay : float; packet_size : int; msg_inst : int }

let default_params = { net_delay = 0.002; packet_size = 4096; msg_inst = 5000 }

type kind_stat = {
  ks_msgs : int;
  ks_pkts : int;
  ks_bytes : int;
  ks_retx : int;
  ks_dups : int;
}

(* Internal mutable accumulator behind the immutable {!kind_stat} view. *)
type kind_acc = {
  mutable ka_msgs : int;
  mutable ka_pkts : int;
  mutable ka_bytes : int;
  mutable ka_retx : int;
  mutable ka_dups : int;
}

type t = {
  eng : Sim.Engine.t;
  rng : Sim.Rng.t;
  prm : params;
  wire : Sim.Facility.t;
  faults : Fault.Injector.t option;
  mutable msgs : int;
  mutable pkts : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  kinds : (string, kind_acc) Hashtbl.t;
}

let create ?faults eng ~rng prm =
  if prm.packet_size <= 0 then invalid_arg "Network.create: packet_size <= 0";
  if prm.net_delay < 0.0 then invalid_arg "Network.create: net_delay < 0";
  {
    eng;
    rng;
    prm;
    wire = Sim.Facility.create eng ~name:"network" ();
    faults;
    msgs = 0;
    pkts = 0;
    dropped = 0;
    delayed = 0;
    duplicated = 0;
    kinds = Hashtbl.create 32;
  }

let params t = t.prm

let packets_for t ~bytes =
  if bytes <= 0 then 1 else (bytes + t.prm.packet_size - 1) / t.prm.packet_size

(* Per-kind accounting mirrors the aggregates: one message per post
   (dropped or not), packets and bytes per transmitted copy.  Counting
   happens at post time with no engine interaction, so it cannot perturb
   the simulation. *)
let kind_account t (tag : Obs.Causal.tag) ~pkts ~bytes ~copies =
  let a =
    match Hashtbl.find_opt t.kinds tag.Obs.Causal.tg_kind with
    | Some a -> a
    | None ->
        let a = { ka_msgs = 0; ka_pkts = 0; ka_bytes = 0; ka_retx = 0; ka_dups = 0 } in
        Hashtbl.add t.kinds tag.Obs.Causal.tg_kind a;
        a
  in
  a.ka_msgs <- a.ka_msgs + 1;
  a.ka_pkts <- a.ka_pkts + (pkts * copies);
  a.ka_bytes <- a.ka_bytes + (bytes * copies);
  if tag.Obs.Causal.tg_retry > 0 then a.ka_retx <- a.ka_retx + 1;
  a.ka_dups <- a.ka_dups + max 0 (copies - 1)

(* Record one copy's Send node; -1 when no causal sink is installed. *)
let causal_send t tag ~pkts ~bytes ~dup =
  match tag with
  | Some tag when Obs.Sink.causal_on () ->
      Obs.Sink.send ~time:(Sim.Engine.now t.eng) ~tag ~bytes ~pkts ~dup
  | _ -> -1

(* One copy's transfer as a chain of events, in the (time, seq) slots a
   process doing the same work would take, so event order is that of a
   process per copy: a start event at now (a spawn's slot), the extra
   delay, one wire service per packet, then [deliver] in the last
   packet's completion. *)
let transmit t n ~extra_delay ~node ~deliver =
  let rec packets left () =
    if left = 0 then begin
      if node >= 0 then Obs.Sink.recv ~time:(Sim.Engine.now t.eng) node;
      deliver node
    end
    else begin
      t.pkts <- t.pkts + 1;
      let service = Sim.Rng.exponential t.rng ~mean:t.prm.net_delay in
      Sim.Facility.submit t.wire ~service (packets (left - 1))
    end
  in
  let now = Sim.Engine.now t.eng in
  Sim.Engine.schedule t.eng ~at:now
    (if extra_delay > 0.0 then fun () ->
       Sim.Engine.schedule t.eng ~at:(now +. extra_delay) (packets n)
     else packets n)

(* Without an injector every message is one on-time copy: no draw, and
   [transmit] adds no delay event, so fault-free runs keep their event
   order. *)
let no_fault = { Fault.Injector.drop = false; extra_delay = 0.0; copies = 1 }

(* Draw, count and trace one verdict, in the sender's context before any
   copy is sent. *)
let draw t inj ~bytes =
  let v = Fault.Injector.message inj in
  if v.drop then begin
    t.dropped <- t.dropped + 1;
    if Obs.Sink.trace_on () then
      Obs.Sink.emit (Sim.Engine.now t.eng) (Obs.Event.Msg_dropped { bytes })
  end
  else begin
    if v.extra_delay > 0.0 then begin
      t.delayed <- t.delayed + 1;
      if Obs.Sink.trace_on () then
        Obs.Sink.emit (Sim.Engine.now t.eng)
          (Obs.Event.Msg_delayed { bytes; by = v.extra_delay })
    end;
    if v.copies > 1 then begin
      t.duplicated <- t.duplicated + 1;
      if Obs.Sink.trace_on () then
        Obs.Sink.emit (Sim.Engine.now t.eng)
          (Obs.Event.Msg_duplicated { bytes; copies = v.copies })
    end
  end;
  v

let post ?tag t ~bytes ~deliver =
  let n = packets_for t ~bytes in
  t.msgs <- t.msgs + 1;
  let v =
    match t.faults with None -> no_fault | Some inj -> draw t inj ~bytes
  in
  let copies = if v.drop then 0 else v.copies in
  (match tag with
  | Some tag -> kind_account t tag ~pkts:n ~bytes ~copies
  | None -> ());
  if v.drop then begin
    let node = causal_send t tag ~pkts:n ~bytes ~dup:0 in
    if node >= 0 then Obs.Sink.drop ~time:(Sim.Engine.now t.eng) node
  end
  else
    for i = 0 to copies - 1 do
      let node = causal_send t tag ~pkts:n ~bytes ~dup:i in
      transmit t n ~extra_delay:v.extra_delay ~node ~deliver
    done

let messages_sent t = t.msgs
let packets_sent t = t.pkts
let messages_dropped t = t.dropped
let messages_delayed t = t.delayed
let messages_duplicated t = t.duplicated

let kind_stats t =
  Hashtbl.fold
    (fun kind a acc ->
      ( kind,
        {
          ks_msgs = a.ka_msgs;
          ks_pkts = a.ka_pkts;
          ks_bytes = a.ka_bytes;
          ks_retx = a.ka_retx;
          ks_dups = a.ka_dups;
        } )
      :: acc)
    t.kinds []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let utilization t = Sim.Facility.utilization t.wire
let mean_queue_length t = Sim.Facility.mean_queue_length t.wire
let max_queue_length t = Sim.Facility.max_queue_length t.wire
let busy_time t = Sim.Facility.busy_time t.wire

let reset_stats t =
  t.msgs <- 0;
  t.pkts <- 0;
  t.dropped <- 0;
  t.delayed <- 0;
  t.duplicated <- 0;
  Hashtbl.reset t.kinds;
  Sim.Facility.reset_stats t.wire
