(* Causal message tracing.

   Every message posted through [Net.Network.post] can carry a [tag]
   naming its causal parent (the node whose receipt triggered the send),
   the transaction it serves, its protocol kind, endpoints, and a
   retry index.  The network allocates one node per transmitted copy
   (fault-injected duplicates get a duplicate index) and records [Send],
   [Recv] and [Drop] events; clients bracket each transaction with a
   [Root] at the instant the Xact span opens and an [End] at the instant
   it closes, so a replication's record reconstructs into one causal DAG
   per transaction — from first request to final commit/abort ack,
   retransmissions, callback rounds and 2PC fan-out included.

   The buffer is a {!Ring} reached through the {!Sink} installed around
   [Sim.Engine.run], and travels back to the caller by value — identical
   at any [Sim.Pool] job count.  Emission only reads the clock it is
   handed; it never holds or draws randomness, so causal-off runs are
   bit-identical to causal-on runs modulo the buffer.  Node ids are
   allocated monotonically, so a parent id is always smaller than its
   children's ids: the DAG is acyclic by construction, and [analyze]
   checks it stayed that way. *)

type ep = Client of int | Shard of int

let ep_name = function
  | Client c -> Printf.sprintf "client:%d" c
  | Shard s -> Printf.sprintf "shard:%d" s

type ev =
  | Root of { id : int; client : int }
  | Send of {
      id : int;
      parent : int;
      xid : int;
      owner : int;
      kind : string;
      src : ep;
      dst : ep;
      bytes : int;
      pkts : int;
      retry : int;
      dup : int;
    }
  | Recv of { id : int }
  | Drop of { id : int }
  | End of { id : int; parent : int; xid : int; client : int; ok : bool }

type entry = { cz_time : float; cz_seq : int; cz_ev : ev }

(* The trace context a sender attaches to [Net.Network.post].  Pure
   data: building one allocates but never touches the engine, so call
   sites construct tags unconditionally and the network ignores them
   when no sink is installed. *)
type tag = {
  tg_parent : int;
  tg_xid : int;
  tg_owner : int;
  tg_kind : string;
  tg_src : ep;
  tg_dst : ep;
  tg_retry : int;
}

(* ------------------------------------------------------------------ *)
(* The buffer                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  ring : entry Ring.t;
  mutable next_id : int;  (* node ids, unique within this buffer/rep *)
}

let create ?limit () = { ring = Ring.create ?limit (); next_id = 0 }
let entries t = Ring.to_array t.ring
let dropped t = Ring.dropped t.ring

let add t ~time ev =
  Ring.push t.ring { cz_time = time; cz_seq = Ring.written t.ring; cz_ev = ev }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let root t ~time ~client =
  let id = fresh_id t in
  add t ~time (Root { id; client });
  id

let send t ~time ~(tag : tag) ~bytes ~pkts ~dup =
  let id = fresh_id t in
  add t ~time
    (Send
       {
         id;
         parent = tag.tg_parent;
         xid = tag.tg_xid;
         owner = tag.tg_owner;
         kind = tag.tg_kind;
         src = tag.tg_src;
         dst = tag.tg_dst;
         bytes;
         pkts;
         retry = tag.tg_retry;
         dup;
       });
  id

let recv t ~time id = add t ~time (Recv { id })
let drop t ~time id = add t ~time (Drop { id })

let finish t ~time ~parent ~xid ~client ~ok =
  add t ~time (End { id = fresh_id t; parent; xid; client; ok })

(* ------------------------------------------------------------------ *)
(* Reconstruction, validation, critical chain                          *)
(* ------------------------------------------------------------------ *)

type link = {
  lk_id : int;
  lk_label : string;  (* "root", "end", or the message kind *)
  lk_send : float;
  lk_recv : float;  (* = lk_send for root/end links *)
  lk_retry : int;
  lk_dup : int;
}

type dag = {
  dg_rep : int;
  dg_client : int;
  dg_xid : int;
  dg_ok : bool;
  dg_start : float;
  dg_finish : float;
  dg_msgs : int;  (* message sends attributed to this transaction *)
  dg_chain : link list;  (* the gating chain, root first, end last *)
}

type check = {
  ck_groups : int;
  ck_closed : int;
  ck_committed : int;
  ck_msgs : int;
  ck_delivered : int;
  ck_dropped_msgs : int;
  ck_inflight : int;
  ck_background : int;
  ck_errors : string list;
}

type analysis = {
  an_dags : dag array;
  an_check : check;
  an_chain_sum : float;
}

(* Per-node bookkeeping during reconstruction. *)
type node = {
  nd_id : int;
  nd_ev : ev;
  nd_time : float;
  mutable nd_recv : float;  (* nan until a Recv arrives *)
  mutable nd_drop : bool;
}

(* One transaction's causal group: opened by a Root, closed by the
   matching End, holding every message attributed to it. *)
type grp = {
  g_rep : int;
  g_client : int;
  g_root : int;
  g_start : float;
  mutable g_msgs : int;
  mutable g_end : int;  (* End node id, -1 while open *)
  mutable g_end_parent : int;
  mutable g_end_time : float;
  mutable g_xid : int;
  mutable g_ok : bool;
}

let node_parent n =
  match n.nd_ev with
  | Send { parent; _ } | End { parent; _ } -> parent
  | Root _ | Recv _ | Drop _ -> -1

let node_link n =
  match n.nd_ev with
  | Root _ ->
      {
        lk_id = n.nd_id;
        lk_label = "root";
        lk_send = n.nd_time;
        lk_recv = n.nd_time;
        lk_retry = 0;
        lk_dup = 0;
      }
  | End _ ->
      {
        lk_id = n.nd_id;
        lk_label = "end";
        lk_send = n.nd_time;
        lk_recv = n.nd_time;
        lk_retry = 0;
        lk_dup = 0;
      }
  | Send { kind; retry; dup; _ } ->
      {
        lk_id = n.nd_id;
        lk_label = kind;
        lk_send = n.nd_time;
        lk_recv = n.nd_recv;
        lk_retry = retry;
        lk_dup = dup;
      }
  | Recv _ | Drop _ -> assert false

(* Reconstruct and validate the causal DAGs of one (possibly merged)
   record.  Entries must carry their replication index; within a rep
   they are processed in sequence order.  [dropped > 0] relaxes the
   orphan checks: the ring may have overwritten the referenced nodes. *)
let analyze ?(dropped = 0) (tagged : (int * entry) array) =
  let es = Array.copy tagged in
  Array.sort
    (fun (ra, a) (rb, b) ->
      match Int.compare ra rb with 0 -> Int.compare a.cz_seq b.cz_seq | c -> c)
    es;
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let dags = ref [] in
  let n_groups = ref 0
  and n_closed = ref 0
  and n_committed = ref 0
  and n_msgs = ref 0
  and n_delivered = ref 0
  and n_dropped = ref 0
  and n_background = ref 0 in
  let chain_sum = ref 0.0 in
  (* per-rep state, reset at each rep boundary *)
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 4096 in
  let group_of : (int, grp) Hashtbl.t = Hashtbl.create 4096 in
  let open_of : (int, grp) Hashtbl.t = Hashtbl.create 64 in
  let cur_rep = ref min_int in
  let chain_of g =
    (* Walk the End's parent pointers back to the Root.  Parent ids are
       strictly smaller than child ids in a well-formed record; stop on
       any violation so a corrupt record cannot loop. *)
    let rec walk acc id =
      if id < 0 then acc
      else
        match Hashtbl.find_opt nodes id with
        | None -> acc
        | Some n ->
            let p = node_parent n in
            if p >= id || p < -1 then node_link n :: acc
            else walk (node_link n :: acc) p
    in
    if g.g_end < 0 then [] else walk [] g.g_end
  in
  let close_rep () =
    (* groups still open when the run was cut at max_sim_time are legal
       in-flight transactions; they yield no DAG *)
    Hashtbl.reset nodes;
    Hashtbl.reset group_of;
    Hashtbl.reset open_of
  in
  Array.iter
    (fun (rep, e) ->
      if rep <> !cur_rep then begin
        if !cur_rep > min_int then close_rep ();
        cur_rep := rep
      end;
      match e.cz_ev with
      | Root { id; client } ->
          incr n_groups;
          if Hashtbl.mem open_of client && dropped = 0 then
            err "rep%d: client %d opened root #%d with a root still open"
              rep client id;
          let g =
            {
              g_rep = rep;
              g_client = client;
              g_root = id;
              g_start = e.cz_time;
              g_msgs = 0;
              g_end = -1;
              g_end_parent = -1;
              g_end_time = nan;
              g_xid = -1;
              g_ok = false;
            }
          in
          Hashtbl.replace open_of client g;
          Hashtbl.replace group_of id g;
          Hashtbl.replace nodes id
            { nd_id = id; nd_ev = e.cz_ev; nd_time = e.cz_time;
              nd_recv = nan; nd_drop = false }
      | Send { id; parent; owner; _ } ->
          incr n_msgs;
          if parent >= id then
            err "rep%d: node #%d has parent #%d (not older: cycle)" rep id
              parent;
          (if parent >= 0 then
             match Hashtbl.find_opt nodes parent with
             | None -> if dropped = 0 then err "rep%d: node #%d has unknown parent #%d" rep id parent
             | Some p -> (
                 match p.nd_ev with
                 | Root _ | End _ ->
                     if e.cz_time < p.nd_time then
                       err "rep%d: node #%d sent at %.9f before parent #%d at %.9f"
                         rep id e.cz_time parent p.nd_time
                 | Send _ ->
                     if p.nd_drop then
                       err "rep%d: node #%d caused by dropped message #%d" rep
                         id parent
                     else if Float.is_nan p.nd_recv then
                       err "rep%d: node #%d caused by undelivered message #%d"
                         rep id parent
                     else if e.cz_time < p.nd_recv then
                       err
                         "rep%d: node #%d sent at %.9f before parent #%d \
                          received at %.9f"
                         rep id e.cz_time parent p.nd_recv
                 | Recv _ | Drop _ -> ()));
          let g =
            match
              if parent >= 0 then Hashtbl.find_opt group_of parent else None
            with
            | Some g -> Some g
            | None -> if owner >= 0 then Hashtbl.find_opt open_of owner else None
          in
          (match g with
          | Some g ->
              g.g_msgs <- g.g_msgs + 1;
              Hashtbl.replace group_of id g
          | None -> incr n_background);
          Hashtbl.replace nodes id
            { nd_id = id; nd_ev = e.cz_ev; nd_time = e.cz_time;
              nd_recv = nan; nd_drop = false }
      | Recv { id } -> (
          match Hashtbl.find_opt nodes id with
          | None -> if dropped = 0 then err "rep%d: recv of unknown node #%d" rep id
          | Some n ->
              if n.nd_drop then err "rep%d: node #%d received after drop" rep id
              else if not (Float.is_nan n.nd_recv) then
                err "rep%d: node #%d received twice" rep id
              else if e.cz_time < n.nd_time then
                err "rep%d: node #%d received at %.9f before send at %.9f" rep
                  id e.cz_time n.nd_time
              else begin
                n.nd_recv <- e.cz_time;
                incr n_delivered
              end)
      | Drop { id } -> (
          match Hashtbl.find_opt nodes id with
          | None -> if dropped = 0 then err "rep%d: drop of unknown node #%d" rep id
          | Some n ->
              if not (Float.is_nan n.nd_recv) then
                err "rep%d: node #%d dropped after delivery" rep id
              else begin
                n.nd_drop <- true;
                incr n_dropped
              end)
      | End { id; parent; xid; client; ok } ->
          (if parent >= 0 then
             match Hashtbl.find_opt nodes parent with
             | Some ({ nd_ev = Send _; _ } as p) ->
                 if (not p.nd_drop) && (not (Float.is_nan p.nd_recv))
                    && e.cz_time < p.nd_recv
                 then
                   err "rep%d: end #%d at %.9f before parent #%d received at %.9f"
                     rep id e.cz_time parent p.nd_recv
             | _ -> ());
          Hashtbl.replace nodes id
            { nd_id = id; nd_ev = e.cz_ev; nd_time = e.cz_time;
              nd_recv = nan; nd_drop = false };
          let g =
            match
              if parent >= 0 then Hashtbl.find_opt group_of parent else None
            with
            | Some g -> Some g
            | None -> Hashtbl.find_opt open_of client
          in
          (match g with
          | None ->
              if dropped = 0 then
                err "rep%d: end #%d of client %d without a root" rep id client
          | Some g ->
              if e.cz_time < g.g_start then
                err "rep%d: end #%d at %.9f before its root at %.9f" rep id
                  e.cz_time g.g_start;
              g.g_end <- id;
              g.g_end_parent <- parent;
              g.g_end_time <- e.cz_time;
              g.g_xid <- xid;
              g.g_ok <- ok;
              Hashtbl.remove open_of g.g_client;
              incr n_closed;
              if ok then begin
                incr n_committed;
                chain_sum := !chain_sum +. (e.cz_time -. g.g_start)
              end;
              dags :=
                {
                  dg_rep = g.g_rep;
                  dg_client = g.g_client;
                  dg_xid = g.g_xid;
                  dg_ok = g.g_ok;
                  dg_start = g.g_start;
                  dg_finish = g.g_end_time;
                  dg_msgs = g.g_msgs;
                  dg_chain = chain_of g;
                }
                :: !dags))
    (es : (int * entry) array);
  let inflight =
    !n_msgs - !n_delivered - !n_dropped
  in
  {
    an_dags = Array.of_list (List.rev !dags);
    an_check =
      {
        ck_groups = !n_groups;
        ck_closed = !n_closed;
        ck_committed = !n_committed;
        ck_msgs = !n_msgs;
        ck_delivered = !n_delivered;
        ck_dropped_msgs = !n_dropped;
        ck_inflight = max 0 inflight;
        ck_background = !n_background;
        ck_errors = List.rev !errors;
      };
    an_chain_sum = !chain_sum;
  }

let check_ok c = c.ck_errors = []

let pp_check fmt c =
  Format.fprintf fmt
    "causal: %d groups (%d closed, %d committed), %d msgs (%d delivered, %d \
     dropped, %d in flight), %d background"
    c.ck_groups c.ck_closed c.ck_committed c.ck_msgs c.ck_delivered
    c.ck_dropped_msgs c.ck_inflight c.ck_background;
  List.iter (fun e -> Format.fprintf fmt "@.  error: %s" e) c.ck_errors

(* ------------------------------------------------------------------ *)
(* Message-amplification analytics                                     *)
(* ------------------------------------------------------------------ *)

type amp = {
  am_kind : string;
  am_msgs : int;
  am_pkts : int;
  am_bytes : int;
  am_retx : int;  (* sends with retry > 0 (first copies only) *)
  am_dups : int;  (* fault-injected duplicate copies *)
}

let amplification (tagged : (int * entry) array) =
  let tbl : (string, int ref * int ref * int ref * int ref * int ref) Hashtbl.t
      =
    Hashtbl.create 64
  in
  Array.iter
    (fun (_, e) ->
      match e.cz_ev with
      | Send { kind; bytes; pkts; retry; dup; _ } ->
          let m, p, b, r, d =
            match Hashtbl.find_opt tbl kind with
            | Some v -> v
            | None ->
                let v = (ref 0, ref 0, ref 0, ref 0, ref 0) in
                Hashtbl.add tbl kind v;
                v
          in
          incr m;
          p := !p + pkts;
          b := !b + bytes;
          if retry > 0 && dup = 0 then incr r;
          if dup > 0 then incr d
      | _ -> ())
    tagged;
  Hashtbl.fold
    (fun kind (m, p, b, r, d) acc ->
      {
        am_kind = kind;
        am_msgs = !m;
        am_pkts = !p;
        am_bytes = !b;
        am_retx = !r;
        am_dups = !d;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.am_kind b.am_kind)

(* Register per-transaction critical-chain shape into [registry].  Hops
   count message links only (root and end excluded). *)
let register_chain_metrics registry an =
  Array.iter
    (fun d ->
      if d.dg_ok then begin
        let hops = max 0 (List.length d.dg_chain - 2) in
        Metrics.observe registry "ccsim_causal_chain_hops" (float_of_int hops);
        Metrics.observe registry "ccsim_causal_chain_seconds"
          (d.dg_finish -. d.dg_start)
      end)
    an.an_dags
