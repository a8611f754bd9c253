type params = { net_delay : float; packet_size : int; msg_inst : int }

let default_params = { net_delay = 0.002; packet_size = 4096; msg_inst = 5000 }

type fault = { drop : bool; extra_delay : float; copies : int }

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
  mutable msgs : int;
  mutable pkts : int;
  mutable fault_hook : (bytes:int -> fault) option;
  kinds : (string, kind_acc) Hashtbl.t;
}

let create eng ~rng prm =
  if prm.packet_size <= 0 then invalid_arg "Network.create: packet_size <= 0";
  if prm.net_delay < 0.0 then invalid_arg "Network.create: net_delay < 0";
  {
    eng;
    rng;
    prm;
    wire = Sim.Facility.create eng ~name:"network" ();
    msgs = 0;
    pkts = 0;
    fault_hook = None;
    kinds = Hashtbl.create 32;
  }

let set_fault_hook t f = t.fault_hook <- Some f

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

let transmit t n ~extra_delay ~node ~deliver =
  Sim.Engine.spawn t.eng (fun () ->
      if extra_delay > 0.0 then Sim.Engine.hold extra_delay;
      for _ = 1 to n do
        t.pkts <- t.pkts + 1;
        let service = Sim.Rng.exponential t.rng ~mean:t.prm.net_delay in
        Sim.Facility.use t.wire service
      done;
      if node >= 0 then Obs.Sink.recv ~time:(Sim.Engine.now t.eng) node;
      deliver node)

let post ?tag t ~bytes ~deliver =
  let n = packets_for t ~bytes in
  t.msgs <- t.msgs + 1;
  match t.fault_hook with
  | None ->
      (* Keep the fault-free path byte-for-byte identical to the original:
         one transfer process, no extra-delay branch in its event trace. *)
      (match tag with
      | Some tag -> kind_account t tag ~pkts:n ~bytes ~copies:1
      | None -> ());
      let node = causal_send t tag ~pkts:n ~bytes ~dup:0 in
      Sim.Engine.spawn t.eng (fun () ->
          for _ = 1 to n do
            t.pkts <- t.pkts + 1;
            let service = Sim.Rng.exponential t.rng ~mean:t.prm.net_delay in
            Sim.Facility.use t.wire service
          done;
          if node >= 0 then Obs.Sink.recv ~time:(Sim.Engine.now t.eng) node;
          deliver node)
  | Some hook ->
      let f = hook ~bytes in
      if f.drop then begin
        (match tag with
        | Some tag -> kind_account t tag ~pkts:n ~bytes ~copies:0
        | None -> ());
        let node = causal_send t tag ~pkts:n ~bytes ~dup:0 in
        if node >= 0 then Obs.Sink.drop ~time:(Sim.Engine.now t.eng) node
      end
      else begin
        let copies = max 1 f.copies in
        (match tag with
        | Some tag -> kind_account t tag ~pkts:n ~bytes ~copies
        | None -> ());
        for i = 0 to copies - 1 do
          let node = causal_send t tag ~pkts:n ~bytes ~dup:i in
          transmit t n ~extra_delay:f.extra_delay ~node ~deliver
        done
      end

let messages_sent t = t.msgs
let packets_sent t = t.pkts

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
  Hashtbl.reset t.kinds;
  Sim.Facility.reset_stats t.wire
