module Proto = Core.Proto
module Coord = Core.Twopc.Coordinator

(* One two-phase-commit attempt for a cross-shard transaction.  Its
   phases, tables and every outcome decision are [Core.Twopc]'s; the
   router keeps what a step cannot do: the Prepare slices, the causal
   context, the spans and the client's reply. *)
type attempt = {
  a_xid : int;
  a_req : int;
  a_slices : (int * Proto.c2s) list; (* per-participant Prepare *)
  (* acks carry each shard's new_versions slice *)
  mutable st : (int * int) list Coord.t;
  a_start : float; (* engine clock at [start_2pc], for the in-doubt metric *)
  (* causal node id of the last consumed 2PC message (a Vote or
     Decision_ack recv), initially the parent of the client's commit.
     Decisions fan out parented on it, and the locally-delivered
     Commit_reply carries it, so the client's next send chains to the
     true causal tail of the 2PC exchange.  -1 when tracing is off. *)
  mutable a_last_ctx : int;
  (* observability only: open span ids, -1 when closed or spans are off *)
  mutable sp_prepare : int;
  mutable sp_decide : int;
}

type t = {
  map : Shard_map.t;
  client_id : int;
  metrics : Core.Metrics.t;
  amnesia : unit -> bool;
  send : int -> parent:int -> retry:int -> Proto.c2s -> unit;
  now : unit -> float;
  deliver_client : int -> Proto.s2c -> unit;
  mutable cur_xid : int;
  touched : bool array; (* shards the current transaction has contacted *)
  mutable attempt : attempt option;
  (* Each shard counts its own crashes; the client knows one server.  The
     router maps per-shard epochs onto one monotone virtual epoch, so any
     shard restart triggers the client's (conservative, whole-cache)
     per-protocol reconstruction exactly once. *)
  shard_epochs : int array;
  mutable virt_epoch : int;
}

let create ~map ~client_id ~metrics ~amnesia ~send ~now ~deliver_client =
  let n = Shard_map.n_shards map in
  {
    map;
    client_id;
    metrics;
    amnesia;
    send;
    now;
    deliver_client;
    cur_xid = min_int;
    touched = Array.make n false;
    attempt = None;
    shard_epochs = Array.make n 0;
    virt_epoch = 0;
  }

let shard_of t page = Shard_map.shard_of_page t.map page

(* 2PC phase spans live on the coordinating client's track, closed once
   (the id field is reset): the prepare span ends when voting does, the
   decide span runs from then to the reply. *)
let close_prepare t a ~ok =
  if a.sp_prepare >= 0 then begin
    Obs.Sink.close_span ~time:(t.now ()) ~ok a.sp_prepare;
    a.sp_prepare <- -1
  end

let open_decide t a =
  if a.sp_decide < 0 && Obs.Sink.spans_on () then
    a.sp_decide <-
      Obs.Sink.open_span ~time:(t.now ())
        ~track:(Obs.Span.Client t.client_id) ~kind:Obs.Span.Decide_2pc
        ~parent:(-1) ~xid:a.a_xid

(* The attempt is over: its spans end, and it is dropped. *)
let drop t a ~ok =
  close_prepare t a ~ok;
  if a.sp_decide >= 0 then begin
    Obs.Sink.close_span ~time:(t.now ()) ~ok a.sp_decide;
    a.sp_decide <- -1
  end;
  t.attempt <- None

let finish t a ~ok =
  (if ok then Core.Metrics.record_xshard_commit t.metrics
   else Core.Metrics.record_xshard_abort t.metrics);
  drop t a ~ok;
  Obs.Sink.observe "ccsim_2pc_indoubt_seconds" (t.now () -. a.a_start);
  let st = a.st in
  let new_versions =
    if not ok then []
    else
      List.concat_map
        (fun s ->
          match List.assoc_opt s st.Coord.acks with
          | Some (_, nv) -> nv
          | None -> [])
        st.Coord.participants
  in
  t.deliver_client a.a_last_ctx
    (Proto.Commit_reply
       {
         xid = a.a_xid;
         req = a.a_req;
         ok;
         new_versions;
         stale_pages = (if ok then [] else List.sort_uniq compare st.Coord.stale);
       })

(* Carry out the coordinator's actions for attempt [a].  Messages go out
   parented on [parent] with retransmission index [retry]. *)
let rec run t a ~parent ~retry actions =
  List.iter
    (fun action ->
      if Coord.due a.st action then
      match action with
      | Coord.Send_prepare s -> t.send s ~parent ~retry (List.assoc s a.a_slices)
      | Coord.Send_decision { shard; commit } ->
          t.send shard ~parent ~retry
            (Proto.Decision
               { client = t.client_id; xid = a.a_xid; req = a.a_req; commit })
      | Coord.Decision_point commit ->
          let amnesia = t.amnesia () in
          if amnesia then Obs.Sink.incr "ccsim_2pc_amnesia_total" 1;
          step t a ~parent ~retry (Coord.Decide { commit; amnesia })
      | Coord.Reply -> finish t a ~ok:(Coord.committed a.st)
      | Coord.Forget { aborted } ->
          if aborted then Core.Metrics.record_xshard_abort t.metrics;
          drop t a ~ok:false
      | Coord.Contradiction kind ->
          raise
            (Core.Server.Server_invariant
               { protocol = "2pc-router"; client = t.client_id; kind }))
    actions

(* Feed one input to the attempt's coordinator. *)
and step t a ~parent ~retry input =
  let phase0 = a.st.Coord.phase in
  let st, actions = Coord.step a.st input in
  a.st <- st;
  if phase0 = Coord.Voting && st.Coord.phase <> Coord.Voting then begin
    close_prepare t a ~ok:(st.Coord.phase <> Coord.Aborting);
    open_decide t a
  end;
  run t a ~parent ~retry actions

(* A vote or acknowledgement for the live attempt; strays for a finished
   or forgotten attempt are dropped. *)
let on_2pc t ~ctx ~xid input =
  match t.attempt with
  | Some a when a.a_xid = xid ->
      a.a_last_ctx <- ctx;
      step t a ~parent:ctx ~retry:0 input
  | Some _ | None -> ()

let start_2pc t ~parent ~retry ~client ~xid ~req ~read_set ~update_pages
    ~release_pages participants =
  let st, prepares = Coord.start participants in
  let decider = st.Coord.decider in
  let slices =
    List.map
      (fun s ->
        let rs = List.filter (fun (p, _) -> shard_of t p = s) read_set in
        let ups = List.filter (fun p -> shard_of t p = s) update_pages in
        let rel = List.filter (fun p -> shard_of t p = s) release_pages in
        ( s,
          Proto.Prepare
            {
              client;
              xid;
              req;
              decider;
              read_set = rs;
              update_pages = ups;
              release_pages = rel;
            } ))
      participants
  in
  let a =
    {
      a_xid = xid;
      a_req = req;
      a_slices = slices;
      st;
      a_start = t.now ();
      a_last_ctx = parent;
      sp_prepare =
        Obs.Sink.open_span ~time:(t.now ())
          ~track:(Obs.Span.Client t.client_id) ~kind:Obs.Span.Prepare_2pc
          ~parent:(-1) ~xid;
      sp_decide = -1;
    }
  in
  t.attempt <- Some a;
  Obs.Sink.observe "ccsim_2pc_fanout"
    (float_of_int (List.length participants));
  run t a ~parent ~retry prepares

(* First sight of a new transaction id.  A dangling attempt here can only
   be a forgotten/abandoned one whose global outcome was abort (the
   reply gate means the client never moves on from a committed attempt,
   and client crashes are deferred across the commit round-trip): the
   coordinator fires best-effort abort decisions at its participants.
   The authoritative cleanup is server-side (a superseded slice), which
   is immune to message reordering. *)
let note_xid t ~parent xid =
  if xid <> t.cur_xid then begin
    Option.iter
      (fun a -> step t a ~parent ~retry:0 Coord.Superseded)
      t.attempt;
    t.cur_xid <- xid;
    Array.fill t.touched 0 (Array.length t.touched) false
  end

let touch t s = t.touched.(s) <- true

let handle_commit t ~parent ~retry ~client ~xid ~req ~read_set ~update_pages
    ~release_pages msg =
  match t.attempt with
  | Some a when a.a_xid = xid -> step t a ~parent ~retry Coord.Retransmit
  | Some _ | None -> (
      let parts = Array.copy t.touched in
      List.iter (fun (p, _) -> parts.(shard_of t p) <- true) read_set;
      List.iter (fun p -> parts.(shard_of t p) <- true) update_pages;
      List.iter (fun p -> parts.(shard_of t p) <- true) release_pages;
      let participants = ref [] in
      Array.iteri (fun s b -> if b then participants := s :: !participants) parts;
      match List.rev !participants with
      | [] ->
          (* unreachable in practice (a commit is only sent by a client
             that contacted a shard, updated, or released); route it
             somewhere deterministic anyway *)
          touch t 0;
          t.send 0 ~parent ~retry msg
      | [ s ] ->
          (* single-shard: the one-round commit path, untouched *)
          touch t s;
          t.send s ~parent ~retry msg
      | participants ->
          start_2pc t ~parent ~retry ~client ~xid ~req ~read_set ~update_pages
            ~release_pages participants)

let route t ~parent ~retry (msg : Proto.c2s) =
  match msg with
  | Proto.Fetch { xid; pages; _ } | Proto.Cert_read { xid; pages; _ } ->
      note_xid t ~parent xid;
      (* all pages of one object live in one class, hence on one shard *)
      let s = shard_of t (List.hd pages).Proto.page in
      touch t s;
      t.send s ~parent ~retry msg
  | Proto.Callback_reply { page; _ } ->
      t.send (shard_of t page) ~parent ~retry msg
  | Proto.Release_retained { client; pages } ->
      List.iter
        (fun (s, ps) ->
          t.send s ~parent ~retry (Proto.Release_retained { client; pages = ps }))
        (Shard_map.partition_pages t.map pages)
  | Proto.Recovered _ ->
      for s = 0 to Shard_map.n_shards t.map - 1 do
        t.send s ~parent ~retry msg
      done
  | Proto.Commit { client; xid; req; read_set; update_pages; release_pages } ->
      note_xid t ~parent xid;
      handle_commit t ~parent ~retry ~client ~xid ~req ~read_set ~update_pages
        ~release_pages msg
  | Proto.Prepare _ | Proto.Decision _ | Proto.Outcome_query _ ->
      (* clients never originate 2PC messages *)
      assert false

let on_s2c t ~shard ~ctx (msg : Proto.s2c) =
  match msg with
  | Proto.Vote { xid; shard = s; ok; stale_pages; _ } ->
      on_2pc t ~ctx ~xid (Coord.Vote { shard = s; ok; stale = stale_pages })
  | Proto.Decision_ack { xid; shard = s; committed; new_versions; _ } ->
      on_2pc t ~ctx ~xid
        (Coord.Ack { shard = s; committed; versions = new_versions })
  | Proto.Server_restart { epoch } ->
      if epoch > t.shard_epochs.(shard) then begin
        t.shard_epochs.(shard) <- epoch;
        t.virt_epoch <- t.virt_epoch + 1;
        t.deliver_client ctx (Proto.Server_restart { epoch = t.virt_epoch })
      end
  | Proto.Fetch_reply _ | Proto.Cert_reply _ | Proto.Commit_reply _
  | Proto.Aborted _ | Proto.Callback_request _ | Proto.Update_push _
  | Proto.Invalidate_page _ ->
      t.deliver_client ctx msg
