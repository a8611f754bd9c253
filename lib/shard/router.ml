module Proto = Core.Proto

(* One two-phase-commit attempt for a cross-shard transaction.

   Phases:

   - [Voting]: prepares are out; collecting votes.
   - [Commit_point_sent]: every vote was yes; the commit decision went to
     the DECIDER ALONE.  Its durable commit record is the global commit
     point, so nothing else may hear "commit" until the decider
     acknowledges — otherwise a participant could apply a commit that
     never became durable anywhere.
   - [Committing]: the commit point is durable; fan the decision out and
     collect acknowledgements.
   - [Aborting]: the global outcome is abort; fan out and collect
     acknowledgements.

   The client's reply is delivered only when EVERY participant has
   acknowledged the decision.  That gate is load-bearing: the lock table
   is keyed by client, so the client must not start its next transaction
   (whose lock traffic would be indistinguishable from the old one's)
   while any shard still holds the old transaction's slice. *)
type phase = Voting | Commit_point_sent | Committing | Aborting

type attempt = {
  a_xid : int;
  a_req : int;
  a_participants : int list; (* ascending shard ids *)
  a_decider : int;
  a_slices : (int * Proto.c2s) list; (* per-participant Prepare *)
  votes : (int, bool) Hashtbl.t;
  mutable stale : int list; (* union of no-voters' stale pages *)
  mutable phase : phase;
  (* shard -> (committed, new_versions slice) once it acknowledged *)
  acks : (int, bool * (int * int) list) Hashtbl.t;
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

let decision t a shard ~parent ~retry ~commit =
  t.send shard ~parent ~retry
    (Proto.Decision { client = t.client_id; xid = a.a_xid; req = a.a_req; commit })

let contradiction t kind =
  raise
    (Core.Server.Server_invariant
       { protocol = "2pc-router"; client = t.client_id; kind })

(* 2PC phase spans live on the coordinating client's track.  Close-once
   discipline (reset the id field) because [drive_commit]/[drive_abort]
   are re-entrant under retransmission. *)
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

let close_decide t a ~ok =
  if a.sp_decide >= 0 then begin
    Obs.Sink.close_span ~time:(t.now ()) ~ok a.sp_decide;
    a.sp_decide <- -1
  end

let finish t a ~ok =
  (if ok then Core.Metrics.record_xshard_commit t.metrics
   else Core.Metrics.record_xshard_abort t.metrics);
  close_prepare t a ~ok;
  close_decide t a ~ok;
  Obs.Sink.observe "ccsim_2pc_indoubt_seconds" (t.now () -. a.a_start);
  let new_versions =
    if not ok then []
    else
      List.concat_map
        (fun s ->
          match Hashtbl.find_opt a.acks s with
          | Some (_, nv) -> nv
          | None -> [])
        a.a_participants
  in
  t.attempt <- None;
  t.deliver_client a.a_last_ctx
    (Proto.Commit_reply
       {
         xid = a.a_xid;
         req = a.a_req;
         ok;
         new_versions;
         stale_pages = (if ok then [] else List.sort_uniq compare a.stale);
       })

let check_done t a =
  if List.for_all (fun s -> Hashtbl.mem a.acks s) a.a_participants then
    finish t a ~ok:(a.phase = Committing)

(* The commit point is durably recorded: fan the commit out to everyone
   still unacknowledged and wait. *)
let drive_commit t a =
  close_prepare t a ~ok:true;
  open_decide t a;
  a.phase <- Committing;
  List.iter
    (fun s ->
      if not (Hashtbl.mem a.acks s) then
        decision t a s ~parent:a.a_last_ctx ~retry:0 ~commit:true)
    a.a_participants;
  check_done t a

let drive_abort t a =
  close_prepare t a ~ok:false;
  open_decide t a;
  a.phase <- Aborting;
  List.iter
    (fun s ->
      if not (Hashtbl.mem a.acks s) then
        decision t a s ~parent:a.a_last_ctx ~retry:0 ~commit:false)
    a.a_participants;
  check_done t a

(* All votes are in: the decision point.  Under a coordinator-crash plan
   this is where the router can "crash": it forgets the attempt entirely
   (participants stay prepared and lean on the termination protocol); the
   client's retransmission of the same commit restarts 2PC under the same
   xid, and duplicate prepares are answered idempotently. *)
let decide t a ~commit =
  if t.amnesia () then begin
    (* coordinator amnesia: the attempt is forgotten mid-flight, so its
       spans end here, marked failed *)
    close_prepare t a ~ok:false;
    close_decide t a ~ok:false;
    Obs.Sink.incr "ccsim_2pc_amnesia_total" 1;
    t.attempt <- None
  end
  else if commit then begin
    close_prepare t a ~ok:true;
    open_decide t a;
    a.phase <- Commit_point_sent;
    decision t a a.a_decider ~parent:a.a_last_ctx ~retry:0 ~commit:true
  end
  else drive_abort t a

let on_vote t ~ctx ~shard ~xid ~ok ~stale_pages =
  match t.attempt with
  | Some a when a.a_xid = xid -> (
      a.a_last_ctx <- ctx;
      match a.phase with
      | Voting ->
          if not (Hashtbl.mem a.votes shard) then begin
            Hashtbl.replace a.votes shard ok;
            if not ok then begin
              a.stale <- stale_pages @ a.stale;
              decide t a ~commit:false
            end
            else if
              List.for_all (fun s -> Hashtbl.mem a.votes s) a.a_participants
            then decide t a ~commit:true
          end
      | Aborting ->
          (* a late no-vote still contributes its stale pages to the
             client's reply, so the restart drops them *)
          if not ok then a.stale <- stale_pages @ a.stale
      | Commit_point_sent | Committing -> ())
  | Some _ | None -> () (* stray vote for a finished/forgotten attempt *)

let on_ack t ~ctx ~shard ~xid ~committed ~new_versions =
  match t.attempt with
  | Some a when a.a_xid = xid -> (
      a.a_last_ctx <- ctx;
      let record () =
        if not (Hashtbl.mem a.acks shard) then
          Hashtbl.replace a.acks shard (committed, new_versions)
      in
      match a.phase with
      | Voting | Commit_point_sent ->
          record ();
          if committed then
            (* durable-commit evidence (a re-sent prepare answered from the
               log, or the decider applying our decision): the global
               outcome is commit *)
            drive_commit t a
          else if shard = a.a_decider then
            (* the decider's slice is gone with no durable commit record —
               under presumed abort that IS the outcome, even if we had
               already asked it to commit (it presumed abort first) *)
            drive_abort t a
          else if a.phase = Voting then
            (* a participant resolved by presumed abort before we decided:
               the decider cannot have committed (it durably tombstones
               itself before ever answering a query with abort) *)
            drive_abort t a
          else
            (* non-decider presumed abort while our commit decision is at
               the decider: its ack settles the outcome either way *)
            check_done t a
      | Committing ->
          if not committed then
            contradiction t "participant-aborted-committed-transaction";
          record ();
          check_done t a
      | Aborting ->
          if committed then
            contradiction t "participant-committed-aborted-transaction";
          record ();
          check_done t a)
  | Some _ | None -> () (* stray ack for a finished/forgotten attempt *)

(* Client retransmission of the commit: re-drive whatever stage is
   incomplete.  The retransmitted message is byte-identical (same xid,
   same req), so participant-side idempotency does the rest. *)
let redrive t a ~parent ~retry =
  match a.phase with
  | Voting ->
      List.iter
        (fun (s, m) ->
          if not (Hashtbl.mem a.votes s) then t.send s ~parent ~retry m)
        a.a_slices
  | Commit_point_sent -> decision t a a.a_decider ~parent ~retry ~commit:true
  | Committing ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem a.acks s) then
            decision t a s ~parent ~retry ~commit:true)
        a.a_participants
  | Aborting ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem a.acks s) then
            decision t a s ~parent ~retry ~commit:false)
        a.a_participants

let start_2pc t ~parent ~retry ~client ~xid ~req ~read_set ~update_pages
    ~release_pages participants =
  let decider = List.hd participants in
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
      a_participants = participants;
      a_decider = decider;
      a_slices = slices;
      votes = Hashtbl.create 8;
      stale = [];
      phase = Voting;
      acks = Hashtbl.create 8;
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
  List.iter (fun (s, m) -> t.send s ~parent ~retry m) slices

(* First sight of a new transaction id.  A dangling attempt here can only
   be a forgotten/abandoned one whose global outcome was abort (the
   reply gate above means the client never moves on from a committed
   attempt, and client crashes are deferred across the commit
   round-trip): fire best-effort abort decisions at its participants.
   The authoritative cleanup is server-side ([settle_superseded]), which
   is immune to message reordering. *)
let note_xid t ~parent xid =
  if xid <> t.cur_xid then begin
    (match t.attempt with
    | Some a ->
        (match a.phase with
        | Voting ->
            Core.Metrics.record_xshard_abort t.metrics;
            List.iter
              (fun s -> decision t a s ~parent ~retry:0 ~commit:false)
              a.a_participants
        | Aborting ->
            List.iter
              (fun s ->
                if not (Hashtbl.mem a.acks s) then
                  decision t a s ~parent ~retry:0 ~commit:false)
              a.a_participants
        | Commit_point_sent | Committing -> ());
        close_prepare t a ~ok:false;
        close_decide t a ~ok:false;
        t.attempt <- None
    | None -> ());
    t.cur_xid <- xid;
    Array.fill t.touched 0 (Array.length t.touched) false
  end

let touch t s = t.touched.(s) <- true

let handle_commit t ~parent ~retry ~client ~xid ~req ~read_set ~update_pages
    ~release_pages msg =
  match t.attempt with
  | Some a when a.a_xid = xid -> redrive t a ~parent ~retry
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
  | Proto.Dirty_evict { xid; page; _ } ->
      note_xid t ~parent xid;
      let s = shard_of t page in
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
      on_vote t ~ctx ~shard:s ~xid ~ok ~stale_pages
  | Proto.Decision_ack { xid; shard = s; committed; new_versions; _ } ->
      on_ack t ~ctx ~shard:s ~xid ~committed ~new_versions
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
