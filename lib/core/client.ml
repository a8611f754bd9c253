exception Restart
exception Crashed

type t = {
  id : int;
  eng : Sim.Engine.t;
  cfg : Sys_params.t;
  proto : proto; (* the protocol's section, chosen once by [create] *)
  intra : bool; (* intra-transaction caching (§4): BeginXact drops the cache *)
  workload : Db.Workload.t;
  rng : Sim.Rng.t;
  metrics : Metrics.t;
  to_server : parent:int -> retry:int -> Proto.c2s -> unit;
  on_commit : unit -> unit;
  audit : Cc.History.t option;
  fault : Fault.Plan.t;
  faulty : bool; (* [Fault.Plan.active fault]: arms timeouts, leases, retries *)
  frng : Sim.Rng.t; (* crash/restart stream, split off the plan seed *)
  cport : Proto.port;
  (* Every per-client table below, and the cache pool's page index, is
     allocated on its first insert ([Sim.Lazy_tbl]) and reset in place
     after that: at thousands of clients most have yet to hear their first
     reply, and eager tables were about 70% of the live heap.  Fold order
     is the same as with eager tables, so messages and the audit are too. *)
  cache_pool : Storage.Lru_pool.t; (* each frame holds its copy's version *)
  inbox_mb : (int * Proto.s2c) Sim.Mailbox.t;
  reply_box : (int * Proto.s2c) Sim.Mailbox.t;
  (* per-transaction state *)
  mutable xid : int;
  mutable seq : int;
  mutable in_xact : bool;
  locked : (int, Proto.lock_kind) Sim.Lazy_tbl.t; (* accessed/locked by current *)
  dirty : (int, unit) Sim.Lazy_tbl.t;
  acquired : (int, unit) Sim.Lazy_tbl.t; (* callback: locks first taken this xact *)
  retained : (int, Proto.lock_kind) Sim.Lazy_tbl.t; (* callback: retained locks *)
  pending_cb : (int, unit) Sim.Lazy_tbl.t; (* callbacks deferred to xact end *)
  read_snap : (int, int) Sim.Lazy_tbl.t;
      (* page -> version first read; under certification, the version
         the server checked *)
  mutable contacted : bool; (* sent any xact-scoped message this attempt *)
  mutable abort_flag : bool;
  mutable abort_stale : int list;
  mutable thinking : bool;
  deferred : (int * Proto.s2c) Queue.t;
  (* fault-recovery state (inert under Fault.none) *)
  mutable cur_req : int; (* sequence number of the last awaitable request *)
  mutable last_req : Proto.c2s option; (* that request, for retransmission *)
  mutable last_req_sent : float; (* its FIRST transmission time *)
  mutable lease_deadline : float; (* retained state trusted until here *)
  mutable crash_requested : bool;
  mutable crashed : bool; (* down: the dispatcher drops every message *)
  mutable srv_epoch : int; (* highest server epoch seen in a restart notice *)
  (* stats *)
  mutable n_commits : int;
  mutable n_restarts : int;
  down_gauge : int ref; (* shared fleet-wide count of crashed clients *)
  (* observability only: open span ids, -1 when closed or spans are off *)
  mutable sp_xact : int;
  mutable sp_attempt : int;
  mutable sp_leaf : int;
  (* causal trace context: the current transaction's Root node and the
     most recently consumed message's node id (the cause of whatever we
     send next); both -1 when causal tracing is off *)
  mutable cz_root : int;
  mutable cz_parent : int;
}

(* The decisions where the paper's algorithms differ on the client.  Each
   protocol section near the end of this file defines one value; [create]
   picks it, and no other code here names an algorithm. *)
and proto = {
  read : t -> int list -> unit;
      (* ReadObject: which cached pages are valid, and the request for the
         rest *)
  update : t -> int list -> unit; (* UpdateObject: the write request *)
  commit_reads : t -> bool;
      (* does the commit carry the read snapshot, for the server to
         validate? *)
  committed : t -> updates:int list -> released:int list -> unit;
      (* after a commit: what the client keeps, given the pages it updated
         and the locks the commit gave up *)
  aborted : t -> unit; (* the protocol's part of abort cleanup *)
  restarted : t -> int -> unit;
      (* a server restart notice arrived, with its causal node id *)
}

let port t = t.cport
let inbox t = t.inbox_mb
let cache t = t.cache_pool
let cpu_utilization t = Sim.Facility.utilization t.cport.Proto.cpu

let reset_stats t =
  Sim.Facility.reset_stats t.cport.Proto.cpu;
  t.n_commits <- 0;
  t.n_restarts <- 0

let charge_pages t n = Comms.use_cpu t.cport (t.cfg.Sys_params.client_proc_inst * n)

(* ------------------------------------------------------------------ *)
(* Span instrumentation                                                *)
(* ------------------------------------------------------------------ *)

(* Leaf phase segments TILE each transaction attempt: at any instant
   inside a transaction exactly one leaf span is open on this client's
   track.  Time passes on the main process during think holds, CPU
   charges, every [Comms.send] (which holds on the client CPU), reply
   waits, abort cleanup, and restart back-off — each is covered by
   exactly one leaf, and consecutive leaves share their boundary
   instant, so the per-phase totals telescope to the [Xact] duration up
   to float-addition rounding ({!Obs.Critical_path.reconciles}).

   [sp_attempt >= 0] implies a span sink is installed (the id came from
   [Obs.Sink.open_span]); everything here is a no-op — not even a clock
   read — when spans are off. *)

let sp_track t = Obs.Span.Client t.id

(* Close the current leaf and open the next at the same timestamp. *)
let sp_enter_leaf t kind =
  if t.sp_attempt >= 0 then begin
    let now = Sim.Engine.now t.eng in
    if t.sp_leaf >= 0 then Obs.Sink.close_span ~time:now t.sp_leaf;
    t.sp_leaf <-
      Obs.Sink.open_span ~time:now ~track:(sp_track t) ~kind
        ~parent:t.sp_attempt ~xid:t.xid
  end

let sp_open_attempt t =
  if Obs.Sink.spans_on () then begin
    let now = Sim.Engine.now t.eng in
    t.sp_attempt <-
      Obs.Sink.open_span ~time:now ~track:(sp_track t) ~kind:Obs.Span.Attempt
        ~parent:t.sp_xact ~xid:t.xid;
    t.sp_leaf <-
      Obs.Sink.open_span ~time:now ~track:(sp_track t)
        ~kind:Obs.Span.Client_cpu ~parent:t.sp_attempt ~xid:t.xid
  end

let sp_close_attempt t ~time ~ok =
  if t.sp_leaf >= 0 then begin
    Obs.Sink.close_span ~time ~ok t.sp_leaf;
    t.sp_leaf <- -1
  end;
  if t.sp_attempt >= 0 then begin
    Obs.Sink.close_span ~time ~ok t.sp_attempt;
    t.sp_attempt <- -1
  end

let sp_close_xact t ~time ~ok =
  if t.sp_xact >= 0 then begin
    Obs.Sink.close_span ~time ~ok t.sp_xact;
    t.sp_xact <- -1
  end

(* A crash ends every open span at the crash instant, marked failed. *)
let sp_crash t =
  if t.sp_xact >= 0 || t.sp_attempt >= 0 then begin
    let now = Sim.Engine.now t.eng in
    sp_close_attempt t ~time:now ~ok:false;
    sp_close_xact t ~time:now ~ok:false
  end

(* ------------------------------------------------------------------ *)
(* Cache management                                                    *)
(* ------------------------------------------------------------------ *)

let drop_page t page = ignore (Storage.Lru_pool.remove t.cache_pool page)

(* Updates stay in the cache until commit (deferred updates, Table 4), and
   every page the transaction updated was pinned by its read, so a victim
   is never dirty: there is no steal path.  A victim may still carry a
   retained lock, which goes back to the server. *)
let on_evict t page =
  if Sim.Lazy_tbl.mem t.retained page then begin
    Sim.Lazy_tbl.remove t.retained page;
    t.to_server ~parent:t.cz_parent ~retry:0
      (Proto.Release_retained { client = t.id; pages = [ page ] })
  end

(* The version is written after the victim is handled: its release holds
   the client CPU, and a push that arrives meanwhile must not outlive the
   copy this fetch installs. *)
let cache_insert t page ~version =
  (match Storage.Lru_pool.insert t.cache_pool page ~dirty:false with
  | None -> ()
  | Some v -> on_evict t v.Storage.Lru_pool.page);
  Storage.Lru_pool.set_version t.cache_pool page version;
  Storage.Lru_pool.pin t.cache_pool page

let touch_and_pin t page =
  ignore (Storage.Lru_pool.touch t.cache_pool page);
  Storage.Lru_pool.pin t.cache_pool page

let cached_version t page = Storage.Lru_pool.version t.cache_pool page

let fetch_pages_of t pages =
  List.map (fun page -> { Proto.page; cached_version = cached_version t page }) pages

(* ------------------------------------------------------------------ *)
(* Asynchronous message handling (dispatcher)                          *)
(* ------------------------------------------------------------------ *)

let handle_callback_request t ctx page =
  if t.in_xact && Sim.Lazy_tbl.mem t.locked page then
    (* in use by the current transaction: release when it terminates *)
    Sim.Lazy_tbl.replace t.pending_cb page ()
  else begin
    Sim.Lazy_tbl.remove t.retained page;
    t.to_server ~parent:ctx ~retry:0
      (Proto.Callback_reply { client = t.id; page })
  end

let handle_push t page version =
  if not (Sim.Lazy_tbl.mem t.dirty page) then
    if Storage.Lru_pool.touch t.cache_pool page then
      Storage.Lru_pool.set_version t.cache_pool page version
(* else: wasted push — we no longer cache the page *)

let handle_invalidate t page =
  if not (Sim.Lazy_tbl.mem t.dirty page) then drop_page t page

let handle_async t ctx = function
  | Proto.Callback_request { page } -> handle_callback_request t ctx page
  | Proto.Update_push { page; version } -> handle_push t page version
  | Proto.Invalidate_page { page } -> handle_invalidate t page
  | Proto.Fetch_reply _ | Proto.Cert_reply _ | Proto.Commit_reply _
  | Proto.Aborted _ | Proto.Server_restart _ | Proto.Vote _
  | Proto.Decision_ack _ ->
      assert false

(* The server crashed and recovered: its lock table, callback
   registrations and in-flight requests are gone.  A transaction of a
   locking protocol that holds (or believes it holds) locks aborts and
   re-acquires them, unless it awaits its commit verdict, which may
   already be durable: the retransmission machinery gets the
   authoritative answer from the recovered server's log.

   Runs on the dispatcher, so it must flag the main process rather than
   raise.  The notice itself is best-effort (droppable): commit-time
   read-set revalidation under server-crash plans is the backstop. *)
let abort_if_locking t ctx =
  let awaiting_commit =
    match t.last_req with
    | Some (Proto.Commit { xid; _ }) -> t.in_xact && xid = t.xid
    | _ -> false
  in
  if
    t.in_xact
    && (t.contacted || Sim.Lazy_tbl.length t.locked > 0)
    && not awaiting_commit
  then begin
    t.abort_flag <- true;
    (* wake the main process if it is blocked on a reply; the synthetic
       abort is caused by the restart notice itself *)
    Sim.Mailbox.send t.reply_box
      (ctx, Proto.Aborted { xid = t.xid; stale_pages = [] })
  end

let dispatch t (ctx, msg) =
  if t.crashed then () (* a down workstation hears nothing *)
  else
  match msg with
  | Proto.Callback_request _ | Proto.Update_push _ | Proto.Invalidate_page _ ->
      (* a thinking client answers nothing until it resumes (§5.5) *)
      if t.thinking then Queue.add (ctx, msg) t.deferred
      else handle_async t ctx msg
  | Proto.Aborted { xid; stale_pages } ->
      if xid = t.xid then begin
        t.abort_flag <- true;
        t.abort_stale <- stale_pages @ t.abort_stale;
        (* wake the main process if it is blocked on a reply *)
        Sim.Mailbox.send t.reply_box (ctx, msg)
      end
  | Proto.Server_restart { epoch } ->
      if epoch > t.srv_epoch then begin
        t.srv_epoch <- epoch;
        t.proto.restarted t ctx
      end
  | Proto.Fetch_reply _ | Proto.Cert_reply _ | Proto.Commit_reply _ ->
      Sim.Mailbox.send t.reply_box (ctx, msg)
  | Proto.Vote _ | Proto.Decision_ack _ ->
      (* 2PC traffic terminates at the shard router; it never reaches a
         client transaction loop *)
      ()

let drain_deferred t =
  let n = Queue.length t.deferred in
  for _ = 1 to n do
    let ctx, msg = Queue.take t.deferred in
    handle_async t ctx msg
  done

(* ------------------------------------------------------------------ *)
(* Main-process helpers                                                *)
(* ------------------------------------------------------------------ *)

let check_abort t =
  if t.crash_requested then raise Crashed;
  if t.abort_flag then raise Restart

let reply_xid = function
  | Proto.Fetch_reply { xid; _ }
  | Proto.Cert_reply { xid; _ }
  | Proto.Commit_reply { xid; _ }
  | Proto.Aborted { xid; _ } ->
      xid
  | Proto.Callback_request _ | Proto.Update_push _ | Proto.Invalidate_page _
  | Proto.Server_restart _ | Proto.Vote _ | Proto.Decision_ack _ ->
      -1

let reply_req = function
  | Proto.Fetch_reply { req; _ }
  | Proto.Cert_reply { req; _ }
  | Proto.Commit_reply { req; _ } ->
      req
  | Proto.Aborted _ | Proto.Callback_request _ | Proto.Update_push _
  | Proto.Invalidate_page _ | Proto.Server_restart _ | Proto.Vote _
  | Proto.Decision_ack _ ->
      -1

(* [req] sequence numbers only advance under an active fault plan; without
   one every request carries [req = 0] and replies are matched by xid
   alone, exactly as before. *)
let next_req t =
  if t.faulty then begin
    t.cur_req <- t.cur_req + 1;
    t.cur_req
  end
  else 0

(* Timed receive with capped exponential backoff.  On every timeout the
   current request is retransmitted verbatim (same xid, same [req]), so
   the server sees an idempotent duplicate.  Replies to earlier [req]s of
   the current transaction are discarded.  A matched reply acknowledges
   the request and renews the lease from the request's FIRST transmission
   time — the server has heard us no earlier than that, so its own expiry
   clock [last_heard + lease] is never behind ours.

   [crashable] is false for the commit round-trip: a crash request is
   deferred until the commit outcome is known, so a transaction the server
   committed is always recorded (and audited) by the client.  The
   observable difference from a client that crashed mid-round-trip is
   nil — the commit was already durable at the server. *)
let await_reply_faulty t ~crashable =
  let retries = ref 0 in
  let rec wait timeout =
    if crashable && t.crash_requested then raise Crashed;
    match Sim.Mailbox.recv_timeout t.reply_box ~timeout with
    | Some (ctx, msg) ->
        if reply_xid msg <> t.xid then wait timeout
        else (
          match msg with
          | Proto.Aborted _ ->
              (* abort-path work (callback releases, restart) is caused
                 by this abort notice *)
              t.cz_parent <- ctx;
              raise Restart
          | m when reply_req m = t.cur_req ->
              if t.fault.Fault.Plan.lease > 0.0 then
                t.lease_deadline <-
                  Float.max t.lease_deadline
                    (t.last_req_sent +. t.fault.Fault.Plan.lease);
              (ctx, m)
          | _ -> wait timeout (* duplicate reply to a superseded request *))
    | None ->
        if crashable && t.crash_requested then raise Crashed;
        Metrics.record_retry t.metrics;
        if Obs.Sink.trace_on () then
          Obs.Sink.emit (Sim.Engine.now t.eng)
            (Obs.Event.Retransmit { client = t.id; xid = t.xid });
        incr retries;
        (match t.last_req with
        | Some m -> t.to_server ~parent:t.cz_parent ~retry:!retries m
        | None -> ());
        wait (Float.min (timeout *. 2.0) t.fault.Fault.Plan.max_backoff)
  in
  wait t.fault.Fault.Plan.req_timeout

let rec await_reply_plain t =
  let ctx, msg = Sim.Mailbox.recv t.reply_box in
  if reply_xid msg <> t.xid then await_reply_plain t (* stale, old attempt *)
  else
    match msg with
    | Proto.Aborted _ ->
        t.cz_parent <- ctx;
        raise Restart
    | m -> (ctx, m)

(* [kind] is the wait-leaf span for this round trip.  On [Restart] (or
   [Crashed]) the wait leaf stays open; the exception handler's own
   [sp_enter_leaf]/[sp_crash] closes it at the handling instant, so the
   tiling has no gap. *)
let await_reply ?(crashable = true) ?(kind = Obs.Span.Fetch_wait) t =
  sp_enter_leaf t kind;
  let ctx, m =
    if t.faulty then await_reply_faulty t ~crashable else await_reply_plain t
  in
  (* everything the main process does next is caused by this reply *)
  t.cz_parent <- ctx;
  sp_enter_leaf t Obs.Span.Client_cpu;
  m

let think t dt =
  if dt > 0.0 then begin
    sp_enter_leaf t Obs.Span.Think;
    t.thinking <- true;
    Sim.Engine.hold dt;
    t.thinking <- false;
    (* deferred-callback replies sent here are accounted as think time *)
    drain_deferred t;
    sp_enter_leaf t Obs.Span.Client_cpu
  end

let describe_c2s = function
  | Proto.Fetch { mode; pages; no_wait; _ } ->
      Printf.sprintf "%s%s lock request [%s]"
        (match mode with Proto.Read -> "S" | Proto.Write -> "X")
        (if no_wait then " (no-wait)" else "")
        (String.concat "," (List.map (fun f -> string_of_int f.Proto.page) pages))
  | Proto.Cert_read { pages; _ } ->
      Printf.sprintf "cert read [%s]"
        (String.concat "," (List.map (fun f -> string_of_int f.Proto.page) pages))
  | Proto.Commit { update_pages; _ } ->
      Printf.sprintf "commit (%d updated pages)" (List.length update_pages)
  | Proto.Callback_reply { page; _ } -> Printf.sprintf "callback reply p%d" page
  | Proto.Release_retained { pages; _ } ->
      Printf.sprintf "release retained [%s]"
        (String.concat "," (List.map string_of_int pages))
  | Proto.Recovered _ -> "recovered (cold cache)"
  | Proto.Prepare { update_pages; _ } ->
      Printf.sprintf "2pc prepare (%d updated pages)"
        (List.length update_pages)
  | Proto.Decision { commit; _ } ->
      if commit then "2pc decision commit" else "2pc decision abort"
  | Proto.Outcome_query { xid; _ } -> Printf.sprintf "2pc outcome query x%d" xid

let send_xact_msg t msg =
  if Obs.Sink.trace_on () then
    Obs.Sink.emit (Sim.Engine.now t.eng)
      (Obs.Event.Client_send
         { client = t.id; xid = t.xid; what = describe_c2s msg });
  t.contacted <- true;
  if t.faulty then (
    match msg with
    | Proto.Fetch { no_wait = false; _ } | Proto.Cert_read _ | Proto.Commit _
      ->
        t.last_req <- Some msg;
        t.last_req_sent <- Sim.Engine.now t.eng
    | _ -> ());
  t.to_server ~parent:t.cz_parent ~retry:0 msg

let record_lookups t ~total ~misses =
  for _ = 1 to misses do
    Metrics.record_lookup t.metrics ~hit:false
  done;
  for _ = 1 to total - misses do
    Metrics.record_lookup t.metrics ~hit:true
  done

(* Record the version a page had when the transaction first accessed it.
   This is what the serializability audit reports as the read: later
   re-reads of a locked page are served from the transaction's private
   copy, so a mid-transaction push to the cached frame (possible only
   under faults, after a lock was lease-reclaimed) must not rewrite
   history.  Under [Fault.none] the snapshot provably equals the cached
   version at commit, because a held lock keeps writers out. *)
let snap_reads t pages =
  List.iter
    (fun p ->
      if not (Sim.Lazy_tbl.mem t.read_snap p) then
        match cached_version t p with
        | Some v -> Sim.Lazy_tbl.replace t.read_snap p v
        | None -> ())
    pages

(* ------------------------------------------------------------------ *)
(* Requests and replies                                                *)
(* ------------------------------------------------------------------ *)

(* A lock request for [pages].  A no-wait request is never answered on
   success, so it carries no request number. *)
let request t ~mode ~no_wait pages =
  send_xact_msg t
    (Proto.Fetch
       {
         client = t.id;
         xid = t.xid;
         req = (if no_wait then 0 else next_req t);
         mode;
         pages = fetch_pages_of t pages;
         no_wait;
       })

(* Await the reply to a blocking request and install the pages it ships.
   The pages of [need] it does not ship were confirmed current: pin them
   in place. *)
let await_pages ?kind t need =
  match await_reply ?kind t with
  | Proto.Fetch_reply { data; _ } | Proto.Cert_reply { data; _ } ->
      List.iter (fun (p, v) -> cache_insert t p ~version:v) data;
      List.iter (fun p -> if not (List.mem_assoc p data) then touch_and_pin t p) need
  | _ -> assert false

(* Pin every already-resident page of the object before anything can be
   installed: installing one page of a multi-page object must not evict
   another page of the same object mid-read. *)
let pin_resident t pages =
  List.iter
    (fun p -> if Storage.Lru_pool.mem t.cache_pool p then touch_and_pin t p)
    pages

(* Touch and pin the pages of the object that were valid in the cache. *)
let pin_hits t pages ~need =
  List.iter (fun p -> if not (List.mem p need) then touch_and_pin t p) pages

(* ------------------------------------------------------------------ *)
(* UpdateObject                                                        *)
(* ------------------------------------------------------------------ *)

let mark_dirty t pages = List.iter (fun p -> Sim.Lazy_tbl.replace t.dirty p ()) pages

(* [request] asks for the write locks the transaction lacks.  A retained
   write lock (callback locking) is as good as one this transaction took. *)
let update_with t pages ~request =
  let have_x p =
    Sim.Lazy_tbl.find_opt t.locked p = Some Proto.Write
    || Sim.Lazy_tbl.find_opt t.retained p = Some Proto.Write
  in
  let need_x = List.filter (fun p -> not (have_x p)) pages in
  if need_x <> [] then request t need_x;
  List.iter (fun p -> Sim.Lazy_tbl.replace t.locked p Proto.Write) need_x;
  snap_reads t need_x;
  mark_dirty t pages;
  check_abort t

(* A blocking write-lock request; the pages were pinned by their read. *)
let write_locks t pages =
  request t ~mode:Proto.Write ~no_wait:false pages;
  await_pages t []

(* ------------------------------------------------------------------ *)
(* Commit / abort                                                      *)
(* ------------------------------------------------------------------ *)

let dirty_pages t = Sim.Lazy_tbl.fold (fun p () acc -> p :: acc) t.dirty []
let read_set t = Sim.Lazy_tbl.fold (fun p v acc -> (p, v) :: acc) t.read_snap []

let apply_new_versions t new_versions =
  List.iter (fun (p, v) -> Storage.Lru_pool.set_version t.cache_pool p v) new_versions

let clear_xact_state t =
  Sim.Lazy_tbl.reset t.locked;
  Sim.Lazy_tbl.reset t.dirty;
  Sim.Lazy_tbl.reset t.acquired;
  Sim.Lazy_tbl.reset t.read_snap;
  Storage.Lru_pool.unpin_all t.cache_pool;
  t.contacted <- false;
  t.abort_flag <- false;
  t.abort_stale <- [];
  t.in_xact <- false

(* Serializability audit: summarize the committed transaction as the
   versions it read and installed.  Must run before [apply_new_versions]
   so updated pages still show the version that was read. *)
let record_audit t ~new_versions =
  match t.audit with
  | None -> ()
  | Some history ->
      Cc.History.add_commit history
        { Cc.History.xid = t.xid; reads = read_set t; writes = new_versions }

let srv_crashes t = t.fault.Fault.Plan.server_crash_mean > 0.0

(* The commit round.  A transaction that never contacted the server,
   updated nothing and owes no deferred callback reply (callback locking
   served it from retained locks) commits without a message.  A read-only
   commit must still contact the server when the server can crash: the
   retained locks may be void (wiped by a crash whose restart notice was
   dropped), and only server-side revalidation can tell. *)
let commit t =
  let updates = dirty_pages t in
  let release_pages = Sim.Lazy_tbl.fold (fun p () acc -> p :: acc) t.pending_cb [] in
  let must_validate = srv_crashes t && Sim.Lazy_tbl.length t.read_snap > 0 in
  if t.contacted || updates <> [] || release_pages <> [] || must_validate then begin
    send_xact_msg t
      (Proto.Commit
         {
           client = t.id;
           xid = t.xid;
           req = next_req t;
           read_set = (if t.proto.commit_reads t then read_set t else []);
           update_pages = updates;
           release_pages;
         });
    match await_reply ~crashable:false ~kind:Obs.Span.Commit_wait t with
    | Proto.Commit_reply { ok = false; stale_pages; _ } ->
        (* failed validation: the server released every lock we held,
           retained ones included — forget them and re-acquire *)
        Sim.Lazy_tbl.reset t.retained;
        Sim.Lazy_tbl.reset t.pending_cb;
        List.iter (drop_page t) stale_pages;
        raise Restart
    | Proto.Commit_reply { new_versions; _ } ->
        record_audit t ~new_versions;
        apply_new_versions t new_versions
    | _ -> assert false
  end
  else record_audit t ~new_versions:[];
  t.proto.committed t ~updates ~released:release_pages

(* After an abort: throw away in-place garbage and pages the server told us
   are stale, then the protocol's own cleanup. *)
let abort_cleanup t =
  t.n_restarts <- t.n_restarts + 1;
  List.iter (drop_page t) t.abort_stale;
  (* A stale-read abort means the cache betrayed us: distrust every page
     this attempt touched, or the restart keeps tripping over the next
     stale copy one abort at a time (optimistic livelock). *)
  if t.abort_stale <> [] && t.cfg.Sys_params.stale_drop_all then
    Sim.Lazy_tbl.iter (fun p _ -> drop_page t p) t.locked;
  List.iter (drop_page t) (dirty_pages t);
  t.proto.aborted t;
  clear_xact_state t

(* ------------------------------------------------------------------ *)
(* §2.1 two-phase locking and §2.4 no-wait locking                     *)
(* ------------------------------------------------------------------ *)

(* A page locked by the current transaction is valid; anything else needs
   a server lock request, which doubles as the validity check (§2.1).
   No-wait locking ([no_wait_ok]) sends the request without waiting when
   every page it names is cached (§2.4). *)
let read_locking t pages ~no_wait_ok =
  pin_resident t pages;
  let need = List.filter (fun p -> not (Sim.Lazy_tbl.mem t.locked p)) pages in
  record_lookups t ~total:(List.length pages) ~misses:(List.length need);
  if need <> [] then begin
    if no_wait_ok && List.for_all (fun p -> cached_version t p <> None) need
    then begin
      request t ~mode:Proto.Read ~no_wait:true need;
      List.iter (fun p -> touch_and_pin t p) need
    end
    else begin
      request t ~mode:Proto.Read ~no_wait:false need;
      await_pages t need
    end;
    List.iter (fun p -> Sim.Lazy_tbl.replace t.locked p Proto.Read) need;
    snap_reads t need
  end;
  pin_hits t pages ~need;
  check_abort t

let nothing_retained _ ~updates:_ ~released:_ = ()

let two_phase =
  {
    read = (fun t pages -> read_locking t pages ~no_wait_ok:false);
    update = (fun t pages -> update_with t pages ~request:write_locks);
    (* under server-crash plans every locking commit carries its read
       snapshot: a crash may have voided the locks mid-transaction without
       the (droppable) restart notice reaching us, so the server must
       re-validate what we read *)
    commit_reads = srv_crashes;
    committed = nothing_retained;
    aborted = ignore;
    restarted = abort_if_locking;
  }

let no_wait =
  {
    two_phase with
    read = (fun t pages -> read_locking t pages ~no_wait_ok:true);
    update =
      (fun t pages ->
        update_with t pages ~request:(fun t need ->
            request t ~mode:Proto.Write ~no_wait:true need));
    (* under faults the optimistic (fire-and-forget) reads are
       re-validated at commit: a dropped no-wait request must not let a
       stale read commit.  The read set is empty — and the server skips
       validation — in the fault-free model, preserving §2.4 exactly. *)
    commit_reads = (fun t -> t.faulty);
  }

(* ------------------------------------------------------------------ *)
(* §2.2 certification                                                  *)
(* ------------------------------------------------------------------ *)

(* Each cached page is checked with the server once per transaction; the
   checked versions are the read set the commit certifies.  No locks, so
   no asynchronous aborts either, and updates stay local until commit.  A
   server restart needs no reaction: validation against the rebuilt
   version table is crash-proof by construction. *)
let read_certification t pages =
  pin_resident t pages;
  let need = List.filter (fun p -> not (Sim.Lazy_tbl.mem t.read_snap p)) pages in
  record_lookups t ~total:(List.length pages) ~misses:(List.length need);
  if need <> [] then begin
    send_xact_msg t
      (Proto.Cert_read
         { client = t.id; xid = t.xid; req = next_req t; pages = fetch_pages_of t need });
    await_pages ~kind:Obs.Span.Cert_wait t need;
    snap_reads t need
  end;
  pin_hits t pages ~need

let certification =
  {
    read = read_certification;
    update = (fun t pages -> update_with t pages ~request:(fun _ _ -> ()));
    commit_reads = (fun _ -> true);
    committed = nothing_retained;
    aborted = ignore;
    restarted = (fun _ _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* §2.3 callback locking                                               *)
(* ------------------------------------------------------------------ *)

(* Callback locking under a lease: retained locks are only trusted while
   the lease holds.  The deadline renews from acknowledged requests, and
   the server's reclamation clock ([last_heard + lease]) is always at or
   behind ours, so a client that stops trusting here can never use a lock
   the server has already given away.  When the lease lapses we drop all
   retained locks; if this attempt already read through them those reads
   are suspect, so the attempt restarts. *)
let check_lease t =
  if
    t.faulty
    && t.fault.Fault.Plan.lease > 0.0
    && Sim.Engine.now t.eng > t.lease_deadline
  then begin
    let pages = Sim.Lazy_tbl.fold (fun p _ acc -> p :: acc) t.retained [] in
    if pages <> [] then begin
      Sim.Lazy_tbl.reset t.retained;
      Sim.Lazy_tbl.reset t.pending_cb;
      Metrics.record_lease_lapse t.metrics;
      (* best effort; the server may already have reclaimed them *)
      t.to_server ~parent:t.cz_parent ~retry:0
        (Proto.Release_retained { client = t.id; pages });
      if t.in_xact && Sim.Lazy_tbl.length t.locked > 0 then raise Restart
    end
  end

(* Retained locks make cached pages valid with no server contact at all. *)
let read_callback t pages =
  check_lease t;
  pin_resident t pages;
  let local p =
    (Sim.Lazy_tbl.mem t.retained p || Sim.Lazy_tbl.mem t.locked p)
    && Storage.Lru_pool.mem t.cache_pool p
  in
  let need = List.filter (fun p -> not (local p)) pages in
  record_lookups t ~total:(List.length pages) ~misses:(List.length need);
  if need <> [] then begin
    (* mark the pages in-use before the fetch leaves: a callback request
       racing the fetch must be deferred, or the dispatcher would release
       the very lock the in-flight fetch relies on *)
    List.iter
      (fun p ->
        if Sim.Lazy_tbl.find_opt t.locked p <> Some Proto.Write then
          Sim.Lazy_tbl.replace t.locked p Proto.Read)
      need;
    request t ~mode:Proto.Read ~no_wait:false need;
    await_pages t need;
    List.iter
      (fun p ->
        if not (Sim.Lazy_tbl.mem t.retained p) then begin
          Sim.Lazy_tbl.replace t.retained p Proto.Read;
          Sim.Lazy_tbl.replace t.acquired p ()
        end)
      need
  end;
  List.iter
    (fun p ->
      (* don't forget a write lock we already hold on a re-read *)
      if Sim.Lazy_tbl.find_opt t.locked p <> Some Proto.Write then
        Sim.Lazy_tbl.replace t.locked p Proto.Read;
      if not (List.mem p need) then touch_and_pin t p)
    pages;
  snap_reads t pages;
  check_abort t

let update_callback t pages =
  check_lease t;
  (* count update permissions served locally (retained write locks) *)
  List.iter
    (fun p ->
      Metrics.record_lookup t.metrics
        ~hit:(Sim.Lazy_tbl.find_opt t.retained p = Some Proto.Write))
    pages;
  update_with t pages ~request:write_locks

(* Give back the locks whose callbacks were deferred while the
   transaction used them. *)
let reply_deferred_callbacks t =
  let pending = Sim.Lazy_tbl.fold (fun p () acc -> p :: acc) t.pending_cb [] in
  List.iter
    (fun p ->
      Sim.Lazy_tbl.remove t.pending_cb p;
      Sim.Lazy_tbl.remove t.retained p;
      t.to_server ~parent:t.cz_parent ~retry:0
        (Proto.Callback_reply { client = t.id; page = p }))
    pending

(* The commit gave up the locks named in [released]; locks on the other
   updated pages survive it, as [Proto.callback_retained] says. *)
let retain_after_commit t ~updates ~released =
  List.iter
    (fun p ->
      Sim.Lazy_tbl.remove t.retained p;
      Sim.Lazy_tbl.remove t.pending_cb p)
    released;
  let mode =
    Proto.callback_retained
      ~retain_writes:t.cfg.Sys_params.callback_retain_writes
  in
  List.iter
    (fun p ->
      if not (List.mem p released) then Sim.Lazy_tbl.replace t.retained p mode)
    updates;
  (* callbacks that arrived while the commit was in flight missed
     [release_pages]; the transaction is over, honour them now *)
  reply_deferred_callbacks t

let callback =
  {
    read = read_callback;
    update = update_callback;
    commit_reads = srv_crashes;
    committed = retain_after_commit;
    aborted =
      (fun t ->
        (* the server released this attempt's new locks *)
        Sim.Lazy_tbl.iter (fun p () -> Sim.Lazy_tbl.remove t.retained p) t.acquired;
        reply_deferred_callbacks t);
    restarted =
      (fun t ctx ->
        (* every retained lock is void.  Dropping [retained] is the
           re-registration step: the next access of each page misses
           [local] and goes through the normal fetch path, which
           re-establishes the server-side registration *)
        Sim.Lazy_tbl.reset t.retained;
        Sim.Lazy_tbl.reset t.pending_cb;
        abort_if_locking t ctx);
  }

(* ------------------------------------------------------------------ *)
(* Construction: the one place the algorithm is selected               *)
(* ------------------------------------------------------------------ *)

let create ?audit ?(fault = Fault.Plan.none) ?(down_gauge = ref 0) eng ~id
    ~cfg ~algo ~workload ~rng ~metrics ~to_server ~on_commit =
  let cpu =
    Sim.Facility.create eng
      ~name:(Printf.sprintf "client-%d-cpu" id)
      ~capacity:cfg.Sys_params.n_client_cpus ()
  in
  let proto =
    match algo with
    | Proto.Two_phase _ -> two_phase
    | Proto.No_wait _ -> no_wait
    | Proto.Callback -> callback
    | Proto.Certification _ -> certification
  in
  {
    id;
    eng;
    cfg;
    proto;
    intra = not (Proto.inter_caching algo);
    workload;
    rng;
    metrics;
    to_server;
    on_commit;
    audit;
    fault;
    faulty = Fault.Plan.active fault;
    frng = Fault.Injector.client_stream fault id;
    cport = { Proto.cpu; mips = cfg.Sys_params.client_mips };
    cache_pool = Storage.Lru_pool.create ~capacity:cfg.Sys_params.cache_size;
    inbox_mb = Sim.Mailbox.create eng;
    reply_box = Sim.Mailbox.create eng;
    xid = -1;
    seq = 0;
    in_xact = false;
    locked = Sim.Lazy_tbl.create 64;
    dirty = Sim.Lazy_tbl.create 64;
    acquired = Sim.Lazy_tbl.create 64;
    retained = Sim.Lazy_tbl.create 256;
    pending_cb = Sim.Lazy_tbl.create 16;
    read_snap = Sim.Lazy_tbl.create 64;
    contacted = false;
    abort_flag = false;
    abort_stale = [];
    thinking = false;
    deferred = Queue.create ();
    cur_req = 0;
    last_req = None;
    last_req_sent = 0.0;
    lease_deadline = infinity;
    crash_requested = false;
    crashed = false;
    srv_epoch = 0;
    n_commits = 0;
    n_restarts = 0;
    down_gauge;
    sp_xact = -1;
    sp_attempt = -1;
    sp_leaf = -1;
    cz_root = -1;
    cz_parent = -1;
  }

let restart_delay t =
  match t.cfg.Sys_params.restart_policy with
  | Sys_params.Immediate -> 0.0
  | Sys_params.Fixed mean -> Sim.Rng.exponential t.rng ~mean
  | Sys_params.Adaptive ->
      let mean = Float.max (Metrics.mean_response t.metrics) 0.1 in
      Sim.Rng.exponential t.rng ~mean

(* ------------------------------------------------------------------ *)
(* The Figure 3 transaction loop                                       *)
(* ------------------------------------------------------------------ *)

let run_profile t (profile : Db.Workload.profile) =
  List.iter
    (fun (s : Db.Workload.step) ->
      t.proto.read t s.Db.Workload.read_pages;
      charge_pages t (List.length s.Db.Workload.read_pages);
      think t s.Db.Workload.update_delay;
      check_abort t;
      if s.Db.Workload.write_pages <> [] then begin
        t.proto.update t s.Db.Workload.write_pages;
        charge_pages t (List.length s.Db.Workload.write_pages)
      end;
      think t s.Db.Workload.internal_delay;
      check_abort t)
    profile.Db.Workload.steps;
  commit t

let begin_attempt t =
  if t.crash_requested then raise Crashed;
  t.seq <- t.seq + 1;
  t.xid <- Proto.make_xid ~client:t.id ~seq:t.seq;
  t.in_xact <- true;
  t.abort_flag <- false;
  t.abort_stale <- [];
  (* intra-transaction caching: the whole cache is invalid at BeginXact *)
  if t.intra then Storage.Lru_pool.clear t.cache_pool

(* ------------------------------------------------------------------ *)
(* Crash / recovery                                                    *)
(* ------------------------------------------------------------------ *)

(* A crash loses every bit of volatile state: the cache and the versions
   its frames hold, retained locks, and any in-flight transaction.  The
   inbox is still served, but [dispatch] drops messages while [crashed] —
   a down workstation hears nothing, and whatever queued meanwhile is gone
   on reboot. *)
let crash_cleanup t =
  sp_crash t;
  (* the causal group dies with the crash, marked failed; the crash has
     no causing message, so the End keeps whatever cause came last *)
  if t.cz_root >= 0 then begin
    Obs.Sink.finish ~time:(Sim.Engine.now t.eng) ~parent:t.cz_parent
      ~xid:t.xid ~client:t.id ~ok:false;
    t.cz_root <- -1;
    t.cz_parent <- -1
  end;
  Metrics.record_crash t.metrics ~in_xact:t.in_xact;
  if Obs.Sink.trace_on () then
    Obs.Sink.emit (Sim.Engine.now t.eng)
      (Obs.Event.Client_crash { client = t.id });
  Storage.Lru_pool.unpin_all t.cache_pool;
  Storage.Lru_pool.clear t.cache_pool;
  Sim.Lazy_tbl.reset t.locked;
  Sim.Lazy_tbl.reset t.dirty;
  Sim.Lazy_tbl.reset t.acquired;
  Sim.Lazy_tbl.reset t.retained;
  Sim.Lazy_tbl.reset t.pending_cb;
  Sim.Lazy_tbl.reset t.read_snap;
  Queue.clear t.deferred;
  t.contacted <- false;
  t.abort_flag <- false;
  t.abort_stale <- [];
  t.in_xact <- false;
  t.thinking <- false;
  t.last_req <- None;
  t.lease_deadline <- infinity;
  t.crash_requested <- false;
  t.crashed <- true;
  incr t.down_gauge

let recover t ~downtime =
  t.crashed <- false;
  decr t.down_gauge;
  (* messages delivered during the outage were already dropped by the
     dispatcher; clear any reply that slipped in before the crash *)
  let rec drain () =
    match Sim.Mailbox.recv_opt t.reply_box with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  Metrics.record_recovery t.metrics ~downtime;
  if Obs.Sink.trace_on () then
    Obs.Sink.emit (Sim.Engine.now t.eng)
      (Obs.Event.Client_recover { client = t.id; downtime });
  (* tell the server we rebooted cold, so it aborts our in-flight
     transaction and frees every lock we held.  Best effort: if this
     message is dropped, the lease sweep reclaims them instead (an active
     crash plan requires a lease, see Fault.Plan.validate). *)
  t.to_server ~parent:(-1) ~retry:0 (Proto.Recovered { client = t.id })

(* One transaction, from drawing its profile to its commit, restarts
   included; returns the think time before the next one. *)
let transaction t =
  let profile = Db.Workload.next t.workload in
  let first_start = Sim.Engine.now t.eng in
  if Obs.Sink.spans_on () then
    t.sp_xact <-
      Obs.Sink.open_span ~time:first_start ~track:(sp_track t)
        ~kind:Obs.Span.Xact ~parent:(-1) ~xid:(-1);
  (* the causal Root shares the Xact span's exact open instant, so the
     DAG chain length reconciles with the span decomposition *)
  t.cz_root <- Obs.Sink.root ~time:first_start ~client:t.id;
  t.cz_parent <- t.cz_root;
  let rec attempt () =
    begin_attempt t;
    sp_open_attempt t;
    match run_profile t profile with
    | () ->
        (* the same clock read closes the spans and measures the
           response, so the Xact span's duration IS the recorded
           end-to-end latency *)
        let now = Sim.Engine.now t.eng in
        let response = now -. first_start in
        t.n_commits <- t.n_commits + 1;
        Metrics.record_commit t.metrics ~response;
        sp_close_attempt t ~time:now ~ok:true;
        sp_close_xact t ~time:now ~ok:true;
        (* the End shares the Xact span's exact close instant *)
        if t.cz_root >= 0 then begin
          Obs.Sink.finish ~time:now ~parent:t.cz_parent ~xid:t.xid
            ~client:t.id ~ok:true;
          t.cz_root <- -1;
          t.cz_parent <- -1
        end;
        Obs.Sink.observe "ccsim_commit_latency_seconds" response;
        clear_xact_state t;
        t.on_commit ()
    | exception Restart ->
        sp_enter_leaf t Obs.Span.Abort_work;
        abort_cleanup t;
        let after_cleanup = Sim.Engine.now t.eng in
        sp_close_attempt t ~time:after_cleanup ~ok:false;
        let sp_restart =
          if t.sp_xact >= 0 then
            Obs.Sink.open_span ~time:after_cleanup ~track:(sp_track t)
              ~kind:Obs.Span.Restart_wait ~parent:t.sp_xact ~xid:(-1)
          else -1
        in
        Sim.Engine.hold (restart_delay t);
        Obs.Sink.close_span ~time:(Sim.Engine.now t.eng) sp_restart;
        attempt ()
  in
  attempt ();
  profile.Db.Workload.external_delay

(* A client is a process only while it has work: each transaction ends by
   spawning the next one, in the (time, seq) slot a think [hold] would
   take.  After a crash the same process sits out the downtime. *)
let rec xact_process t ~name ~down_rng () =
  match transaction t with
  | think ->
      Sim.Engine.spawn t.eng ~name
        ~at:(Sim.Engine.now t.eng +. think)
        (xact_process t ~name ~down_rng)
  | exception Crashed when t.faulty ->
      crash_cleanup t;
      let downtime =
        Float.max 1e-4
          (Sim.Rng.exponential down_rng ~mean:t.fault.Fault.Plan.restart_mean)
      in
      Sim.Engine.hold downtime;
      recover t ~downtime;
      xact_process t ~name ~down_rng ()

let start t =
  Sim.Mailbox.serve t.inbox_mb
    ~name:(Printf.sprintf "client-%d-dispatch" t.id)
    (dispatch t);
  let name = Printf.sprintf "client-%d-main" t.id in
  let down_rng =
    if t.faulty then Sim.Rng.split t.frng "downtime" else t.frng
  in
  (* a plain start event staggers the fleet out of lockstep *)
  Sim.Engine.schedule t.eng ~at:(Sim.Engine.now t.eng) (fun () ->
      let stagger =
        Sim.Rng.exponential t.rng
          ~mean:(Db.Workload.params t.workload).Db.Xact_params.external_delay
      in
      Sim.Engine.spawn t.eng ~name
        ~at:(Sim.Engine.now t.eng +. stagger)
        (xact_process t ~name ~down_rng));
  if t.faulty && t.fault.Fault.Plan.crash_mean > 0.0 then begin
    let sched = Sim.Rng.split t.frng "crash-schedule" in
    Sim.Engine.spawn t.eng ~name:(Printf.sprintf "client-%d-gremlin" t.id)
      (fun () ->
        let rec loop () =
          Sim.Engine.hold
            (Sim.Rng.exponential sched ~mean:t.fault.Fault.Plan.crash_mean);
          (* the flag takes effect at the client's next checkpoint; crash
             requests raised during downtime coalesce into the reboot *)
          t.crash_requested <- true;
          loop ()
        in
        loop ())
  end

let crashed t = t.crashed

let cached_versions t =
  List.filter_map
    (fun p -> Option.map (fun v -> (p, v)) (cached_version t p))
    (Storage.Lru_pool.pages_mru t.cache_pool)
