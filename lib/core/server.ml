exception
  Server_invariant of { protocol : string; client : int; kind : string }

let () =
  Printexc.register_printer (function
    | Server_invariant { protocol; client; kind } ->
        Some
          (Printf.sprintf
             "Server_invariant { protocol = %s; client = %d; kind = %s }"
             protocol client kind)
    | _ -> None)

(* Raised inside a handler when the server crashed under it: the request
   dies silently, exactly like in-flight work lost in a real failure.
   Never escapes [handle]. *)
exception Server_down

type grant = Lock_granted | Lock_aborted

type xact = {
  x_xid : int;
  x_client : int;
  x_epoch : int;  (* server epoch at admission; stale after a crash *)
  x_start : float;
  x_chain : (xact -> unit) Queue.t;
      (* the handler running on it, then those parked behind it *)
  mutable x_aborted : bool;
  mutable x_new_locks : int list;
  mutable x_upgraded : int list;
  (* The one lock request the transaction can have queued: its handlers
     run one at a time and ask for their locks in turn.  The slot is
     cleared when the waiting handler resumes, not when the wait ends. *)
  mutable x_wait_page : int; (* -1: no request queued *)
  mutable x_wait_since : float;
  mutable x_wait_end : grant option; (* set by the grant or abort that ends it *)
  mutable x_resume : unit -> unit; (* the waiting handler's, once suspended *)
  x_wake : unit -> unit; (* the grant: handed to every lock request *)
}

module Int_set = Set.Make (Int)

(* One prepared (in-doubt) 2PC participant slice: this shard voted yes
   and holds the transaction's locks/pins and reserved — unpublished —
   page versions until the decision arrives.  [p_xs = None] after a
   server crash: the slice was rebuilt from the durable prepare record,
   so it owns re-acquired locks but no live transaction.  Crashes wipe
   [prepared], so a slice always belongs to the current epoch. *)
type prep = {
  p_xs : xact option;
  p_decider : int;  (* shard whose durable commit record is the commit point *)
  p_updates : (int * int) list;  (* reserved (page, version) pairs *)
  p_release_pages : int list;
}

type t = {
  eng : Sim.Engine.t;
  cfg : Sys_params.t;
  db : Db.Database.t;
  algo : Proto.algorithm;
  proto : proto; (* the protocol's section, chosen once by [create] *)
  notify : Proto.notify_mode option;
      (* how committed updates reach other caching clients, if at all *)
  rng : Sim.Rng.t;
  metrics : Metrics.t;
  sport : Proto.port;
  disks : Storage.Disk.t array;
  log : Storage.Log_manager.t option;
  log_disk_dev : Storage.Disk.t option;
  buf : Storage.Lru_pool.t;
  mutable lock_table : Cc.Lock_table.t;
  version_table : Cc.Version_table.t;
  active : (int, xact) Hashtbl.t; (* by xid *)
  active_by_client : (int, xact) Hashtbl.t;
  admitting : (int, (xact -> unit) Queue.t) Hashtbl.t;
      (* xid -> the handlers parked for it until it is admitted *)
  mutable n_active : int;
  ready : (unit -> unit) Queue.t; (* each admits one waiting transaction *)
  tombstones : (int, unit) Hashtbl.t;
  in_flight : (int, (unit -> unit) Queue.t) Hashtbl.t;
      (* page -> the resumes of the readers joined to its disk read *)
  mutable detector_armed : bool; (* callback-mode periodic deadlock detector *)
  fault : Fault.Plan.t;
  faulty : bool; (* [Fault.Plan.active fault]: gates every recovery path *)
  completed : (int, Proto.s2c) Hashtbl.t; (* xid -> final commit reply *)
  last_heard : Float.Array.t;
      (* client -> arrival time of its last message, [infinity] when not
         heard since the last crash; empty unless [faulty] *)
  cached_by : (int, Int_set.t ref) Hashtbl.t;
      (* page -> clients caching it, mirrored from the client cache pools
         via residency hooks; an ordered set because the notify loop needs
         "next caching client above cid" evaluated at visit time (sends
         suspend, and caches change under the suspension).  Only maintained
         when the algorithm can send update notifications, so other runs
         pay nothing *)
  (* server crash/recovery (inert unless the plan can crash the server) *)
  srv_faulty : bool; (* [fault.server_crash_mean > 0]: typed logging on *)
  mutable epoch : int; (* bumped at every crash; guards zombie handlers *)
  mutable down : bool; (* down servers hear nothing *)
  mutable down_since : float;
  durable_commits : (int, unit) Hashtbl.t; (* rebuilt from the log *)
  unforced_page : (int, int) Hashtbl.t;
      (* page -> log index of the commit record behind its latest version,
         while that record may still be in the buffered log tail (WAL read
         rule: readers force the log before such a page is shipped) *)
  (* the links, set once by [connect]: clients and shards are named by
     id only, and the assembly puts each message on the wire *)
  mutable to_client :
    int -> parent:int -> xid:int -> retry:int -> Proto.s2c -> unit;
  mutable to_shard : int -> parent:int -> retry:int -> Proto.c2s -> unit;
  (* sharded topologies (inert with a single server: [peers = [||]],
     [prepared]/[pinned] stay empty, and every guard below is an O(1)
     pure read, keeping one-shard runs bit-identical) *)
  mutable shard_id : int;
  mutable peers : t array; (* every shard, self included; [||] unsharded *)
  prepared : (int, prep) Hashtbl.t; (* xid -> in-doubt 2PC slice *)
  deciding : (int, bool) Hashtbl.t;
      (* xid -> the decision being applied to a slice that has left
         [prepared]: its log force, installs and notifications *)
  pinned : (int, int) Hashtbl.t;
      (* page -> xid: prepare pins under certification, standing in for
         the locks the optimistic algorithms never take — any competing
         validation against a pinned page fails while the outcome of the
         pinning transaction is in doubt *)
  mutable local_commits : int; (* commits applied on this shard *)
}

(* The decisions where the paper's algorithms differ on the server.  Each
   protocol section near the end of this file defines one value; [create]
   picks it, and no other code here names an algorithm. *)
and proto = {
  on_block :
    t -> ctx:int -> xact -> page:int -> holders:int list -> unit;
      (* a lock request has just queued behind [holders]: look for a
         deadlock now, or call the lock back and leave deadlocks to the
         periodic detector *)
  on_queue : t -> unit; (* a request has just queued for an MPL slot *)
  wait_kind : Obs.Span.kind; (* the span a queued lock request waits in *)
  abort_locks : t -> xact -> unit; (* the locks an abort gives back *)
  invalid : Metrics.abort_reason; (* the cause of a failed validation *)
  commit_locks : t -> client:int -> release_pages:int list -> unit;
      (* drop the locks a commit does not keep *)
  protect :
    t -> xid:int -> read_pages:int list -> update_pages:int list ->
    rebuilt:bool -> unit;
      (* guard a prepared 2PC slice until its decision; [rebuilt] when
         recovery rebuilt it from its prepare record *)
}

(* [peers] lists every shard (self included) so the union waits-for
   graph can reach each lock table; [||] for a server alone. *)
let connect t ~shard_id ~peers ~to_client ~to_shard =
  t.shard_id <- shard_id;
  t.peers <- peers;
  t.to_client <- to_client;
  t.to_shard <- to_shard

let sharded t = Array.length t.peers > 0

(* Every server of the topology: the peers, or this server alone. *)
let servers t = if sharded t then t.peers else [| t |]

let release_all t ~client = ignore (Cc.Lock_table.release_all t.lock_table client)

(* A broken invariant under this server's protocol, exposed by [client]. *)
let broken t ~client kind =
  raise
    (Server_invariant { protocol = Proto.algorithm_name t.algo; client; kind })

(* ------------------------------------------------------------------ *)
(* Span instrumentation                                                *)
(* ------------------------------------------------------------------ *)

(* Server-side phase spans (disk I/O, WAL forces, lock waits) are root
   spans on this shard's track: they overlap the clients' wait phases
   in the waterfall rather than adding to them.  Emission only reads
   the engine clock — no hold, no randomness — and the whole wrapper is
   a bare [f ()] when no span sink is installed. *)
let sspan t kind f =
  if not (Obs.Sink.spans_on ()) then f ()
  else begin
    let id =
      Obs.Sink.open_span ~time:(Sim.Engine.now t.eng)
        ~track:(Obs.Span.Server t.shard_id) ~kind ~parent:(-1) ~xid:(-1)
    in
    Fun.protect
      ~finally:(fun () -> Obs.Sink.close_span ~time:(Sim.Engine.now t.eng) id)
      f
  end

(* WAL forces, wrapped in a [Log_force] span. *)
let force_commit_sp t log ~n_updates =
  sspan t Obs.Span.Log_force (fun () ->
      Storage.Log_manager.force_commit log ~n_updates)

let force_abort_sp t log ~xid =
  sspan t Obs.Span.Log_force (fun () ->
      Storage.Log_manager.force_abort log ~xid)

let force_prepare_sp t log ~xid ~decider ~read_pages ~updates =
  sspan t Obs.Span.Log_force (fun () ->
      Storage.Log_manager.force_prepare log ~xid ~decider ~read_pages ~updates)

let force_pending_sp t log =
  sspan t Obs.Span.Log_force (fun () -> Storage.Log_manager.force_pending log)

(* Only algorithms that can send update notifications ever consult the
   page -> caching-clients index; everyone else skips the bookkeeping. *)
let notifies t = t.notify <> None

(* The assembly mirrors each client pool's residency changes here, from
   one hook per pool. *)
let residency_add t cid page =
  match Hashtbl.find_opt t.cached_by page with
  | Some r -> r := Int_set.add cid !r
  | None -> Hashtbl.replace t.cached_by page (ref (Int_set.singleton cid))

let residency_drop t cid page =
  match Hashtbl.find_opt t.cached_by page with
  | None -> ()
  | Some r ->
      r := Int_set.remove cid !r;
      if Int_set.is_empty !r then Hashtbl.remove t.cached_by page

let port t = t.sport
let buffer t = t.buf
let locks t = t.lock_table
let versions t = t.version_table
let data_disks t = t.disks
let log_disk t = t.log_disk_dev
let active_count t = t.n_active
let ready_queue_length t = Queue.length t.ready
let cpu_utilization t = Sim.Facility.utilization t.sport.Proto.cpu

let mean_disk_utilization t =
  let total =
    Array.fold_left (fun acc d -> acc +. Storage.Disk.utilization d) 0.0 t.disks
  in
  total /. float_of_int (Array.length t.disks)

let reset_stats t =
  Sim.Facility.reset_stats t.sport.Proto.cpu;
  Array.iter Storage.Disk.reset_stats t.disks;
  Option.iter Storage.Disk.reset_stats t.log_disk_dev;
  Option.iter Storage.Log_manager.reset_stats t.log;
  t.local_commits <- 0

let describe_s2c = function
  | Proto.Fetch_reply { data; _ } ->
      Printf.sprintf "fetch reply (%d data pages)" (List.length data)
  | Proto.Cert_reply { data; _ } ->
      Printf.sprintf "cert reply (%d data pages)" (List.length data)
  | Proto.Commit_reply { ok; _ } ->
      if ok then "commit ok" else "certification failed"
  | Proto.Aborted _ -> "aborted"
  | Proto.Callback_request { page } -> Printf.sprintf "callback request p%d" page
  | Proto.Update_push { page; _ } -> Printf.sprintf "update push p%d" page
  | Proto.Invalidate_page { page } -> Printf.sprintf "invalidate p%d" page
  | Proto.Server_restart { epoch } ->
      Printf.sprintf "server restarted (epoch %d)" epoch
  | Proto.Vote { shard; ok; _ } ->
      Printf.sprintf "vote %s (shard %d)" (if ok then "yes" else "no") shard
  | Proto.Decision_ack { shard; committed; _ } ->
      Printf.sprintf "decision ack %s (shard %d)"
        (if committed then "committed" else "aborted")
        shard

(* [ctx] is the causal node id of the message whose receipt caused this
   send (-1 when none), [xid] overrides the transaction attribution for
   messages whose payload carries no xid (callback requests and update
   notifications belong to the transaction that triggered them), and
   [retry] is the retransmission index of server-side re-sends (callback
   nags). *)
let send_to_client ?(ctx = -1) ?xid ?(retry = 0) t cid msg =
  if Obs.Sink.trace_on () then begin
    let time = Sim.Engine.now t.eng in
    match msg with
    | Proto.Callback_request { page } ->
        Obs.Sink.emit time (Obs.Event.Callback { holder = cid; page })
    | Proto.Update_push { page; _ } ->
        Obs.Sink.emit time
          (Obs.Event.Notify { client = cid; page; push = true })
    | Proto.Invalidate_page { page } ->
        Obs.Sink.emit time
          (Obs.Event.Notify { client = cid; page; push = false })
    | m ->
        Obs.Sink.emit time
          (Obs.Event.Server_reply
             { client = cid; xid = (match m with
                 | Proto.Fetch_reply { xid; _ } | Proto.Cert_reply { xid; _ }
                 | Proto.Commit_reply { xid; _ } | Proto.Aborted { xid; _ } -> xid
                 | _ -> -1);
               what = describe_s2c m })
  end;
  let xid = match xid with Some x -> x | None -> Proto.s2c_xid msg in
  t.to_client cid ~parent:ctx ~xid ~retry msg

(* Shard-to-shard transport (the 2PC termination protocol): the
   assembly's link charges it like any other message and delivers it
   into the peer's normal dispatch. *)
let send_to_shard ?(ctx = -1) ?(retry = 0) t dst msg =
  t.to_shard dst ~parent:ctx ~retry msg

let tombstoned t xid = Hashtbl.mem t.tombstones xid

(* 2PC pins (certification only): pages whose fate rides on an in-doubt
   prepared transaction.  Empty in every unsharded run. *)
let pin_pages t xid pages = List.iter (fun p -> Hashtbl.replace t.pinned p xid) pages

let unpin_xact t xid =
  if Hashtbl.length t.pinned > 0 then
    let mine =
      Hashtbl.fold
        (fun p owner acc -> if owner = xid then p :: acc else acc)
        t.pinned []
    in
    List.iter (Hashtbl.remove t.pinned) mine

let pin_conflicts t ~xid pages =
  if Hashtbl.length t.pinned = 0 then []
  else
    List.filter
      (fun page ->
        match Hashtbl.find_opt t.pinned page with
        | Some owner -> owner <> xid
        | None -> false)
      pages

(* Does [client] have a slice in doubt here, or one whose commit is being
   applied?  Its locks protect that slice until it is decided. *)
let client_has_prepared t ~client =
  let mine tbl =
    Hashtbl.length tbl > 0
    && Hashtbl.fold (fun xid _ acc -> acc || Proto.xid_client xid = client) tbl false
  in
  mine t.prepared || mine t.deciding

(* Epoch barrier for handler code resuming from a suspension point (a
   disk access, a CPU charge, a facility queue): if the server crashed
   meanwhile, this process is a zombie of a dead incarnation and must not
   touch the rebuilt state. *)
let barrier t (xs : xact) = if t.epoch <> xs.x_epoch then raise Server_down

(* ------------------------------------------------------------------ *)
(* MPL admission and the per-transaction chain                         *)
(* ------------------------------------------------------------------ *)

(* Every handler runs in a process of its own.  One overtaken by a server
   crash dies silently, like any in-flight work lost in the failure; the
   client-side timeout machinery owns the retry.  A handler that cannot
   run yet is parked as a closure, not as a suspended process, and
   spawned at the instant that would have woken it: a spawn at now takes
   the event slot a wake takes. *)
let spawn_handler t body =
  Sim.Engine.spawn t.eng (fun () -> try body () with Server_down -> ())

(* One handler of a transaction runs at a time, the rest park behind it
   in arrival order: a client session sends its requests in order, and a
   no-wait commit must wait for the optimistic requests before it.  A
   parked handler spawned after a crash belongs to the dead incarnation:
   it passes the chain on and dies. *)
let rec run_chained t xs f =
  Fun.protect
    ~finally:(fun () ->
      let (_ : xact -> unit) = Queue.take xs.x_chain in
      Option.iter
        (fun g -> spawn_handler t (fun () -> run_chained t xs g))
        (Queue.peek_opt xs.x_chain))
    (fun () ->
      if t.epoch <> xs.x_epoch then raise Server_down;
      f xs)

let run_or_park t xs f =
  Queue.add f xs.x_chain;
  if Queue.length xs.x_chain = 1 then run_chained t xs f

(* End [xs]'s lock wait with [r], unless a grant or an abort already has,
   and resume its handler if it has suspended. *)
let end_wait xs r =
  if xs.x_wait_end = None then begin
    xs.x_wait_end <- Some r;
    let resume = xs.x_resume in
    xs.x_resume <- ignore;
    resume ()
  end

let open_xact t ~client ~xid =
  (match t.log with
  | Some log when t.srv_faulty -> Storage.Log_manager.log_begin log ~xid
  | Some _ | None -> ());
  let rec xs =
    {
      x_xid = xid;
      x_client = client;
      x_epoch = t.epoch;
      x_start = Sim.Engine.now t.eng;
      x_chain = Queue.create ();
      x_aborted = false;
      x_new_locks = [];
      x_upgraded = [];
      x_wait_page = -1;
      x_wait_since = 0.0;
      x_wait_end = None;
      x_resume = ignore;
      x_wake = (fun () -> end_wait xs Lock_granted);
    }
  in
  Hashtbl.replace t.active xid xs;
  Hashtbl.replace t.active_by_client client xs;
  Hashtbl.remove t.admitting xid;
  xs

(* The one way a request reaches its transaction: admit [xid] if it is
   new, then run [f] on it or park [f] behind the handler running.  Past
   [mpl] active transactions a new one waits in the ready queue of
   Figure 4 for the slot [close_xact] hands over, together with the
   handlers of every request that arrives for it meanwhile. *)
let on_xact t ~client ~xid f =
  match Hashtbl.find_opt t.active xid with
  | Some xs -> run_or_park t xs f
  | None -> (
      match Hashtbl.find_opt t.admitting xid with
      | Some parked -> Queue.add f parked
      | None when t.n_active >= t.cfg.Sys_params.mpl ->
          let parked = Queue.create () in
          Queue.add f parked;
          Hashtbl.replace t.admitting xid parked;
          Queue.add
            (fun () ->
              let xs = open_xact t ~client ~xid in
              let first = Queue.take parked in
              Queue.iter
                (fun g -> spawn_handler t (fun () -> run_or_park t xs g))
                parked;
              run_or_park t xs first)
            t.ready;
          t.proto.on_queue t
      | None ->
          t.n_active <- t.n_active + 1;
          run_or_park t (open_xact t ~client ~xid) f)

let close_xact t xs =
  if Hashtbl.mem t.active xs.x_xid then begin
    Hashtbl.remove t.active xs.x_xid;
    (* the client may have opened a newer transaction since: keep its entry *)
    (match Hashtbl.find_opt t.active_by_client xs.x_client with
    | Some cur when cur == xs -> Hashtbl.remove t.active_by_client xs.x_client
    | Some _ | None -> ());
    match Queue.take_opt t.ready with
    | Some admit -> spawn_handler t admit (* hand the MPL slot over *)
    | None -> t.n_active <- t.n_active - 1
  end

(* ------------------------------------------------------------------ *)
(* Buffer manager                                                      *)
(* ------------------------------------------------------------------ *)

let disk_for t page = t.disks.(Db.Database.disk_of_page t.db ~n_disks:(Array.length t.disks) page)

(* Write an evicted dirty frame back to its data disk. *)
let write_back t page =
  Comms.use_cpu t.sport t.cfg.Sys_params.init_disk_inst;
  sspan t Obs.Span.Disk_io (fun () ->
      Storage.Disk.access (disk_for t page) ~seeks:1 ~pages:1)

let install_page t page ~dirty =
  match Storage.Lru_pool.insert t.buf page ~dirty with
  | None -> ()
  | Some v -> if v.Storage.Lru_pool.dirty then write_back t v.Storage.Lru_pool.page

(* The readers joined to a finished disk read go on in arrival order. *)
let resume_joined joined = Queue.iter (fun resume -> resume ()) joined

(* Make [page] buffer-resident, joining any in-flight read for it (the
   paper's hot-spot argument: one I/O serves all concurrent readers). *)
let rec ensure_resident t page =
  let epoch0 = t.epoch in
  if Storage.Lru_pool.touch t.buf page then ()
  else
    match Hashtbl.find_opt t.in_flight page with
    | Some joined ->
        Sim.Engine.suspend (fun resume -> Queue.add resume joined);
        if t.epoch <> epoch0 then raise Server_down;
        ensure_resident t page
    | None ->
        let joined = Queue.create () in
        Hashtbl.replace t.in_flight page joined;
        Comms.use_cpu t.sport t.cfg.Sys_params.init_disk_inst;
        if Obs.Sink.trace_on () then
          Obs.Sink.emit (Sim.Engine.now t.eng) (Obs.Event.Disk_read { page });
        sspan t Obs.Span.Disk_io (fun () ->
            Storage.Disk.access (disk_for t page) ~seeks:1 ~pages:1);
        (* a crash while the I/O was in flight wiped [in_flight] and the
           pool: the result must not pollute the new incarnation, and the
           readers joined to it are zombies too — leave them *)
        if t.epoch <> epoch0 then raise Server_down;
        install_page t page ~dirty:false;
        if t.epoch <> epoch0 then raise Server_down;
        Hashtbl.remove t.in_flight page;
        resume_joined joined

(* Read several pages (one object's worth), exploiting clustering: the
   missing pages of each disk are fetched in one access whose seek count
   follows the ClusterFactor model. *)
let read_pages t pages =
  match pages with
  | [] -> ()
  | [ page ] -> ensure_resident t page
  | _ ->
      let epoch0 = t.epoch in
      let misses =
        List.filter
          (fun p ->
            (not (Storage.Lru_pool.touch t.buf p))
            && not (Hashtbl.mem t.in_flight p))
          pages
      in
      let by_disk = Hashtbl.create 4 in
      List.iter
        (fun p ->
          let d = Db.Database.disk_of_page t.db ~n_disks:(Array.length t.disks) p in
          let l = try Hashtbl.find by_disk d with Not_found -> [] in
          Hashtbl.replace by_disk d (p :: l))
        misses;
      let joins =
        List.map
          (fun p ->
            let joined = Queue.create () in
            Hashtbl.replace t.in_flight p joined;
            (p, joined))
          misses
      in
      Hashtbl.iter
        (fun d group ->
          let seeks = Db.Database.seeks_for_pages t.db t.rng group in
          Comms.use_cpu t.sport t.cfg.Sys_params.init_disk_inst;
          sspan t Obs.Span.Disk_io (fun () ->
              Storage.Disk.access t.disks.(d) ~seeks ~pages:(List.length group));
          if t.epoch <> epoch0 then raise Server_down;
          List.iter (fun p -> install_page t p ~dirty:false) group)
        by_disk;
      if t.epoch <> epoch0 then raise Server_down;
      List.iter
        (fun (p, joined) ->
          Hashtbl.remove t.in_flight p;
          resume_joined joined)
        joins;
      (* anything that was in flight under another process: wait for it *)
      List.iter
        (fun p -> if not (Storage.Lru_pool.mem t.buf p) then ensure_resident t p)
        pages

(* ------------------------------------------------------------------ *)
(* Aborts and deadlock detection                                       *)
(* ------------------------------------------------------------------ *)

(* An aborted transaction left nothing at the server to undo: updates
   reach it only at commit.  Crashable servers still log every abort, so
   recovery can rebuild the tombstone set from durable records; a crash
   since admission leaves the abort to the dead incarnation. *)
let log_abort t xs =
  match t.log with
  | Some log when t.srv_faulty && t.epoch = xs.x_epoch ->
      force_abort_sp t log ~xid:xs.x_xid
  | Some _ | None -> ()

(* [record] and [notify] exist for the sharded paths: a transaction
   aborted on several shards is counted once, and its client is told by
   whoever owns the verdict (the 2PC router), not by every shard. *)
let abort_xact ?(ctx = -1) ?(record = true) ?(notify = true) t xs ~reason
    ~stale =
  if not xs.x_aborted then begin
    xs.x_aborted <- true;
    Hashtbl.replace t.tombstones xs.x_xid ();
    if Obs.Sink.trace_on () then
      Obs.Sink.emit (Sim.Engine.now t.eng)
        (Obs.Event.Abort
           {
             client = xs.x_client;
             xid = xs.x_xid;
             reason =
               (match reason with
               | Metrics.Deadlock -> "deadlock"
               | Metrics.Stale_read -> "stale read"
               | Metrics.Cert_fail -> "certification"
               | Metrics.Lease_reclaim -> "lease reclaimed");
           });
    if record then Metrics.record_abort t.metrics reason;
    if Obs.Sink.metrics_on () then
      Obs.Sink.incr
        (match reason with
        | Metrics.Deadlock -> "ccsim_aborts_total{cause=\"deadlock\"}"
        | Metrics.Stale_read -> "ccsim_aborts_total{cause=\"stale_read\"}"
        | Metrics.Cert_fail -> "ccsim_aborts_total{cause=\"cert_fail\"}"
        | Metrics.Lease_reclaim -> "ccsim_aborts_total{cause=\"lease_reclaim\"}")
        1;
    if xs.x_wait_page >= 0 then begin
      Cc.Lock_table.cancel_wait t.lock_table ~page:xs.x_wait_page xs.x_client;
      end_wait xs Lock_aborted
    end;
    t.proto.abort_locks t xs;
    (* prepare pins stand in for locks: a slice aborted while its prepare
       record was being forced gives them up here *)
    unpin_xact t xs.x_xid;
    close_xact t xs;
    (* the abort record and message happen off the caller's process so a
       deadlock-detecting handler is not charged the victim's cleanup *)
    Sim.Engine.spawn t.eng (fun () ->
        log_abort t xs;
        if notify then
          send_to_client ~ctx t xs.x_client
            (Proto.Aborted { xid = xs.x_xid; stale_pages = stale }))
  end

(* ---- sharded deadlock plumbing -------------------------------------- *)

(* Cross-shard transactions hold locks on several shards at once, so a
   cycle can thread through more than one lock table: the deadlock
   helpers below look at every server of the topology. *)
let waits_graph t =
  let g = Cc.Waits_for.create () in
  Array.iter (fun s -> Cc.Waits_for.add_lock_table g s.lock_table) (servers t);
  g

let start_time_of t c =
  Array.fold_left
    (fun acc s ->
      match Hashtbl.find_opt s.active_by_client c with
      | Some xs -> Float.min acc xs.x_start
      | None -> acc)
    infinity (servers t)
  |> fun v -> if v = infinity then neg_infinity else v

(* Abort the victim's transaction on every shard where it is active.
   Metrics and the client notification happen exactly once; returns
   whether any slice was found. *)
let abort_victim t ~victim ~reason =
  let found = ref false in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt s.active_by_client victim with
      | Some xs when not xs.x_aborted ->
          abort_xact ~record:(not !found) ~notify:(not !found) s xs ~reason
            ~stale:[];
          found := true
      | Some _ | None -> ())
    (servers t);
  !found

(* One blocking request can close several cycles at once, so keep breaking
   cycles through the requester until none remain (or the requester itself
   was chosen as a victim, which clears its wait edges). *)
let check_deadlock t ~requester =
  let rec break () =
    let g = waits_graph t in
    match Cc.Waits_for.find_cycle_from g requester with
    | None -> ()
    | Some cycle ->
        let victim =
          Cc.Waits_for.pick_victim ~start_time:(start_time_of t) cycle
        in
        if Obs.Sink.trace_on () then
          Obs.Sink.emit (Sim.Engine.now t.eng)
            (Obs.Event.Deadlock { victim_client = victim; cycle });
        if abort_victim t ~victim ~reason:Metrics.Deadlock then begin
          if victim <> requester then break ()
        end
        else
          (* a retained-lock holder with no active transaction cannot be
             in a cycle (it has no outgoing wait edge) *)
          broken t ~client:victim
            "deadlock-victim-without-active-transaction"
  in
  break ()

(* ------------------------------------------------------------------ *)
(* Lock acquisition                                                    *)
(* ------------------------------------------------------------------ *)

let lt_mode = function Proto.Read -> Cc.Lock_table.S | Proto.Write -> Cc.Lock_table.X

let record_acquisition xs page ~before ~after =
  match (before, after) with
  | None, Some _ -> xs.x_new_locks <- page :: xs.x_new_locks
  | Some Cc.Lock_table.S, Some Cc.Lock_table.X ->
      xs.x_upgraded <- page :: xs.x_upgraded
  | _ -> ()

(* A grant that lands after (or concurrently with) the transaction's abort
   must be given back immediately: the abort's lock sweep has already run
   and would otherwise leave the lock held forever. *)
let undo_grant t ~page ~client ~before =
  match before with
  | None -> Cc.Lock_table.release t.lock_table ~page client
  | Some Cc.Lock_table.S -> Cc.Lock_table.downgrade t.lock_table ~page client
  | Some Cc.Lock_table.X -> ()

let acquire ?(ctx = -1) t xs ~page ~mode =
  let client = xs.x_client in
  if xs.x_aborted then Lock_aborted
  else begin
    let before = Cc.Lock_table.held t.lock_table ~page client in
    match
      Cc.Lock_table.request t.lock_table ~page client (lt_mode mode)
        ~wake:xs.x_wake
    with
    | Cc.Lock_table.Granted ->
        record_acquisition xs page ~before
          ~after:(Cc.Lock_table.held t.lock_table ~page client);
        Lock_granted
    | Cc.Lock_table.Blocked holders ->
        if Obs.Sink.trace_on () then
          Obs.Sink.emit (Sim.Engine.now t.eng)
            (Obs.Event.Lock_wait
               {
                 client;
                 page;
                 mode = (match mode with Proto.Read -> "S" | Proto.Write -> "X");
               });
        (* register the wait before anything that can suspend, so an abort
           arriving mid-callback-send still cancels this queued request *)
        xs.x_wait_page <- page;
        xs.x_wait_since <- Sim.Engine.now t.eng;
        t.proto.on_block t ~ctx xs ~page ~holders;
        (* a grant or an abort can end the wait during [on_block] *)
        sspan t t.proto.wait_kind (fun () ->
            if xs.x_wait_end = None then
              Sim.Engine.suspend (fun resume -> xs.x_resume <- resume));
        if t.epoch <> xs.x_epoch then
          (* the server crashed while we waited: the lock table that held
             this request is gone — touch nothing *)
          Lock_aborted
        else begin
        let r = xs.x_wait_end in
        xs.x_wait_page <- -1;
        xs.x_wait_end <- None;
        (match r with
        | Some Lock_granted when xs.x_aborted ->
            undo_grant t ~page ~client ~before;
            Lock_aborted
        | Some Lock_granted ->
            if Obs.Sink.trace_on () then
              Obs.Sink.emit (Sim.Engine.now t.eng)
                (Obs.Event.Lock_grant
                   {
                     client;
                     page;
                     mode =
                       (match mode with Proto.Read -> "S" | Proto.Write -> "X");
                   });
            record_acquisition xs page ~before
              ~after:(Cc.Lock_table.held t.lock_table ~page client);
            Lock_granted
        | Some Lock_aborted | None -> Lock_aborted)
        end
  end

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

(* Server CPU for [n] pages sent or updates received. *)
let charge_pages t n =
  if n > 0 then Comms.use_cpu t.sport (t.cfg.Sys_params.server_proc_inst * n)

(* A transaction is finished once its commit verdict is recorded; duplicate
   or retransmitted messages for it must not re-open it through [admit].
   Only populated under an active fault plan (retries cannot otherwise
   occur), so the fault-free path never consults a growing table. *)
let remember_reply t xid reply =
  if t.faulty then Hashtbl.replace t.completed xid reply

let finished_reply t xid =
  if t.faulty then Hashtbl.find_opt t.completed xid else None

(* In-chain guard: a duplicate parked behind the handler that finished
   the transaction would otherwise run against its stale state.  (The
   chain has already fenced handlers of a crashed incarnation.) *)
let still_open t xs = (not xs.x_aborted) && Hashtbl.mem t.active xs.x_xid

(* WAL read rule: a page whose latest committed version is still in the
   buffered log tail must not be shipped to a reader — the reader forces
   the log first (group commit), charged one sequential log page.  Every
   version a client ever observes is therefore durable, so a crash can
   never erase an observed version, and the version numbers recovery
   re-issues can never collide with one a client still holds. *)
let await_pages_durable t xs pages =
  match t.log with
  | Some log when t.srv_faulty ->
      let pending page =
        match Hashtbl.find_opt t.unforced_page page with
        | Some lsn ->
            if lsn < Storage.Log_manager.durable_records log then begin
              Hashtbl.remove t.unforced_page page;
              false
            end
            else true
        | None -> false
      in
      if List.exists pending pages then begin
        force_pending_sp t log;
        barrier t xs
      end
  | Some _ | None -> ()

(* Remember, for the WAL read rule above, which pages' latest versions
   ride in the log tail the [append_commit] that was just buffered. *)
let note_unforced t log new_versions =
  let lsn = Storage.Log_manager.records_logged log - 1 in
  List.iter
    (fun (page, _) -> Hashtbl.replace t.unforced_page page lsn)
    new_versions

let reply_committed = function
  | Proto.Decision_ack { committed; _ } -> committed
  | Proto.Commit_reply { ok; _ } -> ok
  | _ -> false

(* What this shard knows of [xid]: the one idempotency lookup every
   commit-time handler starts from ({!Twopc.Participant.status}). *)
let status t xid =
  Twopc.Participant.status
    ~prepared:(Hashtbl.mem t.prepared xid)
    ~deciding:(Hashtbl.find_opt t.deciding xid)
    ~tombstoned:(tombstoned t xid)
    ~finished:
      (Option.map (fun r -> (r, reply_committed r)) (finished_reply t xid))
    ~durable:(Hashtbl.mem t.durable_commits xid)
    ~live:
      (match Hashtbl.find_opt t.active xid with
      | Some xs -> not xs.x_aborted
      | None -> false)

(* The versions a commit installed, when only its durable log record
   survives (a crash wiped the recorded reply). *)
let durable_versions t ~client xid =
  Option.map
    (fun log ->
      match Storage.Log_manager.durable_commit_updates log ~xid with
      | Some new_versions -> new_versions
      | None -> broken t ~client "durable-commit-without-log-record")
    t.log

(* [on_xact] for a request that needs its transaction open: a finished
   one is ignored, and an aborted one is answered [Aborted] unless
   [silent]. *)
let on_open ?(silent = false) t ~ctx ~client ~xid f =
  if tombstoned t xid then begin
    if not silent then
      send_to_client ~ctx t client (Proto.Aborted { xid; stale_pages = [] })
  end
  else if finished_reply t xid = None && not (Hashtbl.mem t.durable_commits xid)
  then on_xact t ~client ~xid f

(* Bring the (page, version) pairs a reply ships into the buffer pool, in
   one clustering-aware disk access, and make them durable. *)
let read_data t xs data =
  let pages = List.map fst data in
  read_pages t pages;
  await_pages_durable t xs pages

let handle_fetch t ~ctx ~client ~xid ~req ~mode ~pages ~no_wait =
  on_open ~silent:no_wait t ~ctx ~client ~xid (fun xs ->
      if still_open t xs then begin
        (* lock every page of the object first, then read the stale
           and missing ones *)
        let rec lock_all acc = function
          | [] -> `Ok (List.rev acc)
          | { Proto.page; cached_version } :: rest -> (
              match acquire ~ctx t xs ~page ~mode with
              | Lock_aborted -> `Abort_handled
              | Lock_granted ->
                  if xs.x_aborted then `Abort_handled
                  else begin
                    let current =
                      Cc.Version_table.current t.version_table page
                    in
                    match cached_version with
                    | Some v when v = current -> lock_all acc rest
                    | Some _ when no_wait ->
                        (* the client is already computing on a stale
                           copy: abort and tell it which page to drop *)
                        abort_xact ~ctx t xs ~reason:Metrics.Stale_read
                          ~stale:[ page ];
                        `Abort_handled
                    | Some _ | None ->
                        lock_all ((page, current) :: acc) rest
                  end)
        in
        match lock_all [] pages with
        | `Abort_handled -> ()
        | `Ok data ->
            read_data t xs data;
            if not xs.x_aborted then begin
              charge_pages t (List.length data);
              if not no_wait then
                send_to_client ~ctx t client
                  (Proto.Fetch_reply { xid; req; data })
            end
      end)

let handle_cert_read t ~ctx ~client ~xid ~req ~pages =
  on_open t ~ctx ~client ~xid (fun xs ->
      if still_open t xs then begin
        let data =
          List.filter_map
            (fun { Proto.page; cached_version } ->
              let current = Cc.Version_table.current t.version_table page in
              match cached_version with
              | Some v when v = current -> None
              | Some _ | None -> Some (page, current))
            pages
        in
        read_data t xs data;
        charge_pages t (List.length data);
        send_to_client ~ctx t client (Proto.Cert_reply { xid; req; data })
      end)

(* Commit-time validation: the read-set pages whose versions are no
   longer current, plus those an in-doubt prepared transaction pins (pins
   exist only under sharded certification).  Which reads a commit carries
   is the client's protocol decision; the version bump that follows a
   passed check must come before any suspension point, so no competing
   commit can slip between the two. *)
let validate t ~xid ~read_set ~update_pages =
  let stale =
    if t.fault.Fault.Plan.unsafe_skip_validation then []
    else
      List.filter_map
        (fun (page, version) ->
          if Cc.Version_table.is_current t.version_table ~page ~version then
            None
          else Some page)
        read_set
  in
  if Hashtbl.length t.pinned = 0 then stale
  else
    List.sort_uniq compare
      (stale @ pin_conflicts t ~xid (List.map fst read_set @ update_pages))

(* A one-round commit's verdict, recorded for retransmissions and sent;
   stale pages make it a refusal. *)
let reply_commit t ~ctx ~client ~xid ~req ~new_versions ~stale =
  let reply =
    Proto.Commit_reply
      { xid; req; ok = stale = []; new_versions; stale_pages = stale }
  in
  remember_reply t xid reply;
  send_to_client ~ctx t client reply

let notify_clients ?(ctx = -1) t ~updater ~xid ~mode new_versions =
  (* The reverse index replaces a scan of every client.  Each send is a
     suspension point under which caches change, so candidates must be
     discovered lazily — "smallest caching client above the last one
     visited", evaluated at visit time — to notify exactly the clients a
     full ascending scan with per-client membership checks would. *)
  List.iter
    (fun (page, version) ->
      let next above =
        match Hashtbl.find_opt t.cached_by page with
        | None -> None
        | Some r -> Int_set.find_first_opt (fun c -> c > above) !r
      in
      let rec loop last =
        match next last with
        | None -> ()
        | Some cid ->
            if cid <> updater then begin
              match mode with
              | Proto.Push ->
                  charge_pages t 1;
                  send_to_client ~ctx ~xid t cid
                    (Proto.Update_push { page; version })
              | Proto.Invalidate ->
                  send_to_client ~ctx ~xid t cid
                    (Proto.Invalidate_page { page })
            end;
            loop cid
      in
      loop (-1))
    new_versions

(* The commit pipeline, for a one-round commit and a 2PC decision alike,
   once [new_versions] are in the version table.  Crashable servers append
   every commit record, read-only ones too, so a lost reply can be rebuilt
   from the durable log; the append shares the atomic step of the version
   change, so a reader that fetches these versions and forces its own
   commit makes this one durable too (group commit).  Then charge the
   [images] update images received, force the log when [force], install
   the pages, give back the locks the protocol does not keep, close the
   transaction, answer a one-round commit's request [req] and notify
   caching clients.  [xs] is [None] for a 2PC slice rebuilt by recovery. *)
let commit_pipeline ?(ctx = -1) ?req t xs ~client ~xid ~new_versions ~images
    ~force ~release_pages =
  let epoch = t.epoch in
  let fence () = if t.epoch <> epoch then raise Server_down in
  (match t.log with
  | Some log when t.srv_faulty ->
      Storage.Log_manager.append_commit log ~xid ~updates:new_versions;
      note_unforced t log new_versions
  | Some _ | None -> ());
  charge_pages t images;
  fence ();
  (match t.log with
  | Some log when force -> force_commit_sp t log ~n_updates:images
  | Some _ | None -> ());
  fence ();
  List.iter
    (fun (p, _) -> if t.epoch = epoch then install_page t p ~dirty:true)
    new_versions;
  fence ();
  (match xs with
  | Some _ -> t.proto.commit_locks t ~client ~release_pages
  | None ->
      (* a slice rebuilt from the log owns plain re-acquired locks *)
      release_all t ~client);
  if Obs.Sink.trace_on () then
    Obs.Sink.emit (Sim.Engine.now t.eng)
      (Obs.Event.Commit
         { client; xid; n_updates = List.length new_versions });
  t.local_commits <- t.local_commits + 1;
  Option.iter (close_xact t) xs;
  Option.iter
    (fun req -> reply_commit t ~ctx ~client ~xid ~req ~new_versions ~stale:[])
    req;
  match t.notify with
  | Some mode when new_versions <> [] ->
      notify_clients ~ctx t ~updater:client ~xid ~mode new_versions
  | Some _ | None -> ()

(* One-round commit: validate, bump the versions, then run the pipeline.
   The bump comes at once, before any suspension point: certification
   needs it atomic with the validation, and under the locking protocols
   the committer holds X on every updated page until the pipeline gives
   the locks back, so no other transaction sees the new versions early.
   Crashable servers force every commit, read-only ones too. *)
let commit_one_round t ~ctx xs ~client ~xid ~req ~read_set ~update_pages
    ~release_pages =
  let stale = validate t ~xid ~read_set ~update_pages in
  if stale <> [] then begin
    Metrics.record_abort t.metrics t.proto.invalid;
    release_all t ~client;
    close_xact t xs;
    reply_commit t ~ctx ~client ~xid ~req ~new_versions:[] ~stale
  end
  else
    commit_pipeline ~ctx ~req t (Some xs) ~client ~xid
      ~new_versions:
        (List.map
           (fun p -> (p, Cc.Version_table.bump t.version_table p))
           update_pages)
      ~images:(List.length update_pages)
      ~force:(t.srv_faulty || update_pages <> [])
      ~release_pages

let handle_commit t ~ctx ~client ~xid ~req ~read_set ~update_pages
    ~release_pages =
  match status t xid with
  | Twopc.Participant.Aborted None | Deciding false ->
      send_to_client ~ctx t client (Proto.Aborted { xid; stale_pages = [] })
  | Aborted (Some reply) | Committed (Some reply) ->
      (* the commit already ran; its reply was lost — replay it verbatim *)
      send_to_client ~ctx t client reply
  | Committed None ->
      (* the commit became durable before a server crash wiped
         [completed]: rebuild the lost reply from the log.  [req] comes
         from the retransmission, so the client's request pairing holds *)
      Option.iter
        (fun new_versions ->
          reply_commit t ~ctx ~client ~xid ~req ~new_versions ~stale:[])
        (durable_versions t ~client xid)
  | Absent | Preparing | Prepared | Deciding true ->
      on_xact t ~client ~xid (fun xs ->
          if not (still_open t xs) then begin
            (* a duplicate parked behind the handler that finished the
               transaction: replay the recorded verdict, if any *)
            match finished_reply t xid with
            | Some reply -> send_to_client ~ctx t client reply
            | None -> ()
          end
          else
            commit_one_round t ~ctx xs ~client ~xid ~req ~read_set
              ~update_pages ~release_pages)

(* ------------------------------------------------------------------ *)
(* Two-phase commit (sharded topologies only; presumed abort)          *)
(* ------------------------------------------------------------------ *)

(* Apply a decision to the prepared slice of [xid], with the slice in
   [deciding] throughout.  Commit publishes the reserved versions, logs
   and forces the commit record — re-appending the update records so a
   checkpoint taken between prepare and decision can never hide them
   from replay — installs the pages, releases locks/pins under the
   protocol's normal commit rules and notifies caching clients.  Abort
   discards the reservation.  Returns the versions the acknowledgement
   carries. *)
let resolve ?(ctx = -1) t xid ~commit =
  let pr = Hashtbl.find t.prepared xid in
  let client = Proto.xid_client xid in
  Hashtbl.remove t.prepared xid;
  Hashtbl.replace t.deciding xid commit;
  let epoch = t.epoch in
  unpin_xact t xid;
  let new_versions =
    if commit then begin
      List.iter
        (fun (page, version) ->
          Cc.Version_table.set t.version_table ~page ~version)
        pr.p_updates;
      (* the decision force carries the commit record alone: the update
         images were already charged and forced at prepare *)
      commit_pipeline ~ctx t pr.p_xs ~client ~xid ~new_versions:pr.p_updates
        ~images:0 ~force:true ~release_pages:pr.p_release_pages;
      pr.p_updates
    end
    else begin
      (match pr.p_xs with
      | Some xs ->
          (* counted and announced by whoever decided the global abort *)
          abort_xact ~record:false ~notify:false t xs ~reason:Metrics.Cert_fail
            ~stale:[]
      | None -> (
          Hashtbl.replace t.tombstones xid ();
          release_all t ~client;
          match t.log with
          | Some log when t.srv_faulty -> force_abort_sp t log ~xid
          | Some _ | None -> ()));
      []
    end
  in
  if t.epoch = epoch then Hashtbl.remove t.deciding xid;
  new_versions

let vote t ~ctx ~client ~xid ~req ~ok ~stale =
  send_to_client ~ctx t client
    (Proto.Vote { xid; req; shard = t.shard_id; ok; stale_pages = stale })

let decision_ack t ~ctx ~client ~xid ~req ~committed ~new_versions =
  send_to_client ~ctx t client
    (Proto.Decision_ack { xid; req; shard = t.shard_id; committed; new_versions })

(* Step the participant machine for [xid] with [input] and carry out its
   actions.  [other] gets the actions only one handler can take: [Admit]
   and [Prepare_slice] (a prepare), [Answer] (a query), [Query_decider]
   (the in-doubt timer). *)
let participate ?(other = fun _ -> ()) t ~ctx ~client ~xid ~req input =
  let _, actions = Twopc.Participant.step (status t xid) input in
  let open Twopc.Participant in
  List.iter
    (function
      | Vote ok -> vote t ~ctx ~client ~xid ~req ~ok ~stale:[]
      | Replay reply -> send_to_client ~ctx t client reply
      | Ack committed ->
          decision_ack t ~ctx ~client ~xid ~req ~committed ~new_versions:[]
      | Ack_durable ->
          Option.iter
            (fun new_versions ->
              decision_ack t ~ctx ~client ~xid ~req ~committed:true
                ~new_versions)
            (durable_versions t ~client xid)
      | Resolve { commit; ack } ->
          let new_versions = resolve ~ctx t xid ~commit in
          if ack then begin
            let reply =
              Proto.Decision_ack
                { xid; req; shard = t.shard_id; committed = commit; new_versions }
            in
            remember_reply t xid reply;
            send_to_client ~ctx t client reply
          end
      | Kill ->
          Option.iter
            (fun xs ->
              abort_xact ~record:false ~notify:false t xs
                ~reason:Metrics.Cert_fail ~stale:[])
            (Hashtbl.find_opt t.active xid)
      | Tombstone { force } -> (
          Hashtbl.replace t.tombstones xid ();
          match t.log with
          | Some log when force && t.srv_faulty ->
              force_abort_sp t log ~xid
          | Some _ | None -> ())
      | (Admit | Prepare_slice | Hold_in_doubt | Answer _ | Query_decider) as
        action ->
          other action)
    actions

(* Participant termination protocol: while a slice stays in doubt,
   periodically ask the decider for the outcome (presumed abort: it
   answers commit only from a durable commit record).  A decider whose
   own slice is still undecided after the nag interval presumes abort
   unilaterally — safe, because the global commit point is precisely its
   own durable commit record, which does not exist yet. *)
let rec nag_in_doubt ?(n = 0) t xid =
  if t.faulty then
    Sim.Engine.spawn t.eng (fun () ->
        let period = Float.max (4.0 *. t.fault.Fault.Plan.req_timeout) 2.0 in
        Sim.Engine.hold period;
        Option.iter
          (fun pr ->
            participate t ~ctx:(-1) ~client:(Proto.xid_client xid) ~xid ~req:0
              ~other:(function
                | Twopc.Participant.Query_decider ->
                    send_to_shard ~retry:n t pr.p_decider
                      (Proto.Outcome_query { shard = t.shard_id; xid });
                    nag_in_doubt ~n:(n + 1) t xid
                | _ -> ())
              (Twopc.Participant.Nag { decider = pr.p_decider = t.shard_id }))
          (Hashtbl.find_opt t.prepared xid))

(* Validate a slice, then either abort it and vote no, or reserve its
   versions without publishing them (the bump to current+1 happens at
   decision-commit via [Version_table.set]), protect the slice, force the
   prepare record and vote yes. *)
let prepare_slice t ~ctx xs ~client ~xid ~req ~decider ~read_set
    ~update_pages ~release_pages =
  let stale = validate t ~xid ~read_set ~update_pages in
  if stale <> [] then begin
    abort_xact t xs ~notify:false ~reason:t.proto.invalid ~stale:[];
    vote t ~ctx ~client ~xid ~req ~ok:false ~stale
  end
  else begin
    let new_versions =
      List.map
        (fun p -> (p, Cc.Version_table.current t.version_table p + 1))
        update_pages
    in
    t.proto.protect t ~xid ~read_pages:(List.map fst read_set) ~update_pages
      ~rebuilt:false;
    charge_pages t (List.length update_pages);
    barrier t xs;
    (match t.log with
    | Some log when t.srv_faulty ->
        force_prepare_sp t log ~xid ~decider
          ~read_pages:(List.map fst read_set) ~updates:new_versions
    | Some log when update_pages <> [] ->
        (* bare cost model: the prepare force writes the update images *)
        force_commit_sp t log ~n_updates:(List.length update_pages)
    | Some _ | None -> ());
    barrier t xs;
    participate t ~ctx ~client ~xid ~req Twopc.Participant.Forced
      ~other:(function
        | Twopc.Participant.Hold_in_doubt ->
            Metrics.record_prepare t.metrics;
            Hashtbl.replace t.prepared xid
              {
                p_xs = Some xs;
                p_decider = decider;
                p_updates = new_versions;
                p_release_pages = release_pages;
              };
            nag_in_doubt t xid
        | _ -> ())
  end

(* Traffic for a NEW transaction from a client whose OLDER slice is still
   prepared here can only mean the old attempt resolved as a global abort:
   the router replies to the client (and the client moves to its next xid)
   strictly after every participant acknowledged the decision, and client
   crashes are deferred across the commit round-trip — so a still-prepared
   older slice has no durable commit anywhere and presumed abort is
   consistent.  Settling it NOW, before the new transaction touches the
   lock table (which is keyed by client, not xid), is what makes the
   cleanup safe under arbitrary message reordering: a racing
   [Decision { commit = false }] for the old xid then finds the slice
   already gone and just re-acknowledges. *)
let settle_superseded t ~client ~xid =
  if Hashtbl.length t.prepared > 0 then
    Hashtbl.fold
      (fun xid' _ acc ->
        if Proto.xid_client xid' = client && xid' < xid then xid' :: acc
        else acc)
      t.prepared []
    |> List.iter (fun xid' ->
           participate t ~ctx:(-1) ~client ~xid:xid' ~req:0
             Twopc.Participant.Superseded)

let handle_prepare t ~ctx ~client ~xid ~req ~decider ~read_set ~update_pages
    ~release_pages =
  participate t ~ctx ~client ~xid ~req Twopc.Participant.Prepare
    ~other:(function
      | Twopc.Participant.Admit ->
          on_xact t ~client ~xid (fun xs ->
              participate t ~ctx ~client ~xid ~req
                Twopc.Participant.Prepare_admitted ~other:(function
                | Twopc.Participant.Prepare_slice ->
                    prepare_slice t ~ctx xs ~client ~xid ~req ~decider
                      ~read_set ~update_pages ~release_pages
                | _ -> ()))
      | _ -> ())

(* Shard-to-shard: a prepared participant asks this shard (the decider)
   for the outcome.  Presumed abort makes the negative answer a durable
   promise: absent a durable commit record the answer is abort, our own
   in-doubt slice (if any) resolves the same way, and the tombstone is
   forced to the log so no post-crash retransmission can re-vote yes. *)
let handle_outcome_query t ~ctx ~shard ~xid =
  Metrics.record_outcome_query t.metrics;
  let client = Proto.xid_client xid in
  participate t ~ctx ~client ~xid ~req:0 Twopc.Participant.Query
    ~other:(function
      | Twopc.Participant.Answer commit ->
          send_to_shard ~ctx t shard
            (Proto.Decision { client; xid; req = 0; commit })
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Lease reclamation (fault plans only)                                *)
(* ------------------------------------------------------------------ *)

(* Take back everything a crashed or partitioned client holds: its active
   transaction (if any), then any leftover locks — including callback
   locks retained across transactions, which its empty post-restart cache
   no longer justifies. *)
let reclaim_client t ~client =
  (* never touch a client with a prepared 2PC slice: its locks protect an
     in-doubt transaction whose fate only the termination protocol may
     settle (the classic 2PC blocking window) *)
  if not (client_has_prepared t ~client) then begin
    (match Hashtbl.find_opt t.active_by_client client with
    | Some xs -> abort_xact t xs ~reason:Metrics.Lease_reclaim ~stale:[]
    | None -> ());
    Cc.Lock_table.cancel_all_waits t.lock_table client;
    let freed = Cc.Lock_table.release_all t.lock_table client in
    if freed <> [] then begin
      Metrics.record_reclaimed t.metrics ~locks:(List.length freed);
      if Obs.Sink.trace_on () then
        Obs.Sink.emit (Sim.Engine.now t.eng)
          (Obs.Event.Lock_reclaimed { client; pages = freed })
    end
  end

(* Periodic sweep: any client silent for longer than the lease has, by the
   client-side lease rule, already stopped trusting its locks — reclaim
   them so their pages do not stay locked forever.  The client deadline is
   first-transmission time + lease; [last_heard] is an arrival time, which
   is never earlier, so the server acts only after the client has lapsed. *)
let lease_sweep t =
  let lease = t.fault.Fault.Plan.lease in
  let now = Sim.Engine.now t.eng in
  (* the silent set is fixed before the first reclaim, whose abort
     replies can suspend the sweep while clients are heard from again *)
  let silent = ref [] in
  for cid = Float.Array.length t.last_heard - 1 downto 0 do
    if now -. Float.Array.get t.last_heard cid > lease then
      silent := cid :: !silent
  done;
  List.iter
    (fun cid ->
      if
        Hashtbl.mem t.active_by_client cid
        || Cc.Lock_table.holds_any t.lock_table cid
      then reclaim_client t ~client:cid)
    !silent

(* ------------------------------------------------------------------ *)
(* Server crash and recovery                                           *)
(* ------------------------------------------------------------------ *)

(* Drop every piece of volatile state, instantaneously (no suspension
   point: nothing can observe a half-crashed server).  Handlers suspended
   or parked on a chain across the crash are fenced by the epoch bump;
   those parked in the ready queue are dropped with it, and handlers
   waiting on a lock in the replaced lock table or on a read in the wiped
   [in_flight] never resume at all. *)
let crash_server t =
  let killed = t.n_active in
  Metrics.record_server_crash t.metrics ~killed;
  if Obs.Sink.trace_on () then
    Obs.Sink.emit (Sim.Engine.now t.eng) (Obs.Event.Server_crash { killed });
  t.epoch <- t.epoch + 1;
  t.down <- true;
  t.down_since <- Sim.Engine.now t.eng;
  Option.iter Storage.Log_manager.crash t.log;
  Storage.Lru_pool.clear t.buf;
  t.lock_table <- Cc.Lock_table.create ();
  Cc.Version_table.clear t.version_table;
  Hashtbl.reset t.active;
  Hashtbl.reset t.active_by_client;
  Hashtbl.reset t.admitting;
  Hashtbl.reset t.tombstones;
  Hashtbl.reset t.in_flight;
  Hashtbl.reset t.completed;
  Float.Array.fill t.last_heard 0 (Float.Array.length t.last_heard) infinity;
  Hashtbl.reset t.durable_commits;
  Hashtbl.reset t.unforced_page;
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.deciding;
  Hashtbl.reset t.pinned;
  t.n_active <- 0;
  Queue.clear t.ready

(* Replay the durable log from the last checkpoint (paying the log-disk
   read-back), reload the committed page-version map, and rebuild the
   bookkeeping that outlives [completed]: tombstones from durable aborts,
   the durable-commit set from durable commits.  Ends with a best-effort
   restart broadcast — droppable; commit-time revalidation and the
   tombstone/durable-commit tables are the reliable backstop. *)
let recover_server t =
  let replay_start = Sim.Engine.now t.eng in
  (match t.log with
  | Some log ->
      let scratch = Hashtbl.create 256 in
      let stats = Storage.Log_manager.replay log ~into:scratch in
      let versions =
        Hashtbl.fold (fun p v acc -> (p, v) :: acc) scratch []
        |> List.sort compare
      in
      List.iter
        (fun (page, version) ->
          Cc.Version_table.set t.version_table ~page ~version)
        versions;
      List.iter
        (fun (xid, committed) ->
          if committed then Hashtbl.replace t.durable_commits xid ()
          else Hashtbl.replace t.tombstones xid ())
        (Storage.Log_manager.durable_outcomes log);
      (* in-doubt 2PC slices: re-protect them before the server hears its
         first post-recovery message, then resolve them through the
         termination protocol *)
      if sharded t then
        List.iter
          (fun (xid, decider, read_pages, updates) ->
            t.proto.protect t ~xid ~read_pages
              ~update_pages:(List.map fst updates) ~rebuilt:true;
            Hashtbl.replace t.prepared xid
              {
                p_xs = None;
                p_decider = decider;
                p_updates = updates;
                p_release_pages = [];
              };
            nag_in_doubt t xid)
          (Storage.Log_manager.in_doubt log);
      if Obs.Sink.trace_on () then
        Obs.Sink.emit (Sim.Engine.now t.eng)
          (Obs.Event.Log_replayed
             {
               records = stats.Storage.Log_manager.records_replayed;
               pages = stats.Storage.Log_manager.pages_read;
             })
  | None -> ());
  t.down <- false;
  let now = Sim.Engine.now t.eng in
  let recovery = now -. replay_start in
  let downtime = now -. t.down_since in
  Metrics.record_server_recovery t.metrics ~downtime ~recovery;
  if Obs.Sink.trace_on () then
    Obs.Sink.emit now (Obs.Event.Server_recover { downtime; recovery });
  for cid = 0 to t.cfg.Sys_params.n_clients - 1 do
    send_to_client t cid (Proto.Server_restart { epoch = t.epoch })
  done

(* ------------------------------------------------------------------ *)
(* §2.1 two-phase locking and §2.4 no-wait locking                     *)
(* ------------------------------------------------------------------ *)

(* The two share their server half: a blocked request is checked for a
   deadlock at once, and a transaction's locks all go when it commits or
   aborts.  No-wait differs in its client half and in the [no_wait] flag
   its requests carry; notification (§2.5) is the [notify] data. *)

(* A prepared slice keeps the locks it holds.  One rebuilt by recovery
   takes them again: write locks on its updates, read locks on the rest
   of its read set. *)
let relock_slice t ~xid ~read_pages ~update_pages ~rebuilt =
  if rebuilt then begin
    let client = Proto.xid_client xid in
    let reacquire mode page =
      match
        Cc.Lock_table.request t.lock_table ~page client mode
          ~wake:(fun () -> ())
      with
      | Cc.Lock_table.Granted -> ()
      | Cc.Lock_table.Blocked _ ->
          (* prepared slices validated/locked disjointly, and the
             post-crash table holds nothing else yet *)
          broken t ~client "in-doubt-lock-reacquisition-blocked"
    in
    List.iter (reacquire Cc.Lock_table.X) update_pages;
    List.iter
      (fun p ->
        if not (List.mem p update_pages) then reacquire Cc.Lock_table.S p)
      read_pages
  end

let locking =
  {
    on_block =
      (fun t ~ctx:_ xs ~page:_ ~holders:_ ->
        if not xs.x_aborted then check_deadlock t ~requester:xs.x_client);
    on_queue = ignore;
    wait_kind = Obs.Span.Lock_wait;
    abort_locks = (fun t xs -> release_all t ~client:xs.x_client);
    invalid = Metrics.Stale_read;
    commit_locks = (fun t ~client ~release_pages:_ -> release_all t ~client);
    protect = relock_slice;
  }

(* ------------------------------------------------------------------ *)
(* §2.2 certification                                                  *)
(* ------------------------------------------------------------------ *)

(* Certification takes no locks, so [locking]'s lock operations find
   nothing to give back and no request of it ever blocks.  A failed
   validation is a certification abort, and a prepared slice is guarded
   by pins, which stand in for the locks: any competing validation against
   a pinned page fails while the slice's outcome is in doubt. *)
let certification =
  {
    locking with
    invalid = Metrics.Cert_fail;
    protect =
      (fun t ~xid ~read_pages ~update_pages ~rebuilt:_ ->
        pin_pages t xid read_pages;
        pin_pages t xid update_pages);
  }

(* ------------------------------------------------------------------ *)
(* §2.3 callback locking                                               *)
(* ------------------------------------------------------------------ *)

(* Periodic deadlock detector for callback locking.  Edges into retained
   locks are spurious until the holder has had a chance to answer the
   callback (§6), so a cycle is only trusted once every member has been
   waiting at least one grace period; younger cycles either dissolve via
   in-flight callback replies or are caught by a later sweep.  The detector
   arms itself when a request blocks and disarms when nothing waits, so a
   quiescent simulation still drains. *)
let wait_since_of t c =
  Array.fold_left
    (fun acc s ->
      match (Hashtbl.find_opt s.active_by_client c, acc) with
      | Some xs, Some a when xs.x_wait_page >= 0 ->
          Some (Float.min xs.x_wait_since a)
      | Some xs, None when xs.x_wait_page >= 0 -> Some xs.x_wait_since
      | (Some _ | None), acc -> acc)
    None (servers t)

(* Has client [c] waited at least one grace period? *)
let waited_grace t ~now c =
  match wait_since_of t c with
  | Some since -> now -. since >= t.cfg.Sys_params.callback_grace
  | None -> false

let all_waiting_owners t =
  Array.fold_left
    (fun acc s ->
      List.rev_append (Cc.Lock_table.waiting_owners s.lock_table) acc)
    [] (servers t)
  |> List.sort_uniq Int.compare

(* A cycle the waits-for graph cannot see: a client whose next request
   waits in the MPL ready queue defers the callbacks an active transaction
   waits on, until its own transaction ends.  When the ready queue is
   non-empty and every active transaction has waited a grace period, the
   youngest active transaction gives its slot up. *)
let mpl_victim t ~now =
  let waited xs = waited_grace t ~now xs.x_client in
  let youngest _ xs = function
    | Some y when (y.x_start, y.x_xid) >= (xs.x_start, xs.x_xid) -> Some y
    | Some _ | None -> Some xs
  in
  Array.find_map
    (fun s ->
      if
        Queue.is_empty s.ready
        || not (Hashtbl.fold (fun _ xs ok -> ok && waited xs) s.active true)
      then None
      else
        Option.map (fun xs -> xs.x_client) (Hashtbl.fold youngest s.active None))
    (servers t)

let deadlock_sweep t =
  let now = Sim.Engine.now t.eng in
  let rec loop () =
    let g = waits_graph t in
    let actionable =
      List.find_map
        (fun o ->
          match Cc.Waits_for.find_cycle_from g o with
          | Some cycle when List.for_all (waited_grace t ~now) cycle ->
              Some cycle
          | Some _ | None -> None)
        (all_waiting_owners t)
    in
    let victim =
      match actionable with
      | Some cycle ->
          Some (Cc.Waits_for.pick_victim ~start_time:(start_time_of t) cycle)
      | None -> mpl_victim t ~now
    in
    match victim with
    | None -> ()
    | Some victim ->
        if abort_victim t ~victim ~reason:Metrics.Deadlock then loop ()
  in
  loop ()

let rec arm_detector t =
  if not t.detector_armed then begin
    t.detector_armed <- true;
    Sim.Engine.schedule t.eng
      ~at:(Sim.Engine.now t.eng +. t.cfg.Sys_params.callback_grace)
      (fun () ->
        t.detector_armed <- false;
        deadlock_sweep t;
        (* waits younger than one grace period were skipped by the
           stability rule and deserve another look; older waits were fully
           checked, and any future cycle needs a new block, which re-arms *)
        let now = Sim.Engine.now t.eng in
        let young =
          Hashtbl.fold
            (fun _ xs acc ->
              acc
              || xs.x_wait_page >= 0
                 && now -. xs.x_wait_since < t.cfg.Sys_params.callback_grace)
            t.active false
        in
        if young then arm_detector t)
  end

(* A blocked request asks every other holder to give the lock back.
   Deadlocks are left to the periodic detector, or checked at once when
   the grace period is zero. *)
let call_back t ~ctx xs ~page ~holders =
  let client = xs.x_client and since = xs.x_wait_since in
  let ask ~retry holders =
    List.iter
      (fun holder ->
        if holder <> client then
          send_to_client ~ctx ~xid:xs.x_xid ~retry t holder
            (Proto.Callback_request { page }))
      holders
  in
  ask ~retry:0 holders;
  (* under message loss a callback request (or its reply) can vanish;
     re-nag the surviving holders until the wait ends *)
  if t.faulty && t.fault.Fault.Plan.callback_retry > 0.0 then
    Sim.Engine.spawn t.eng (fun () ->
        let rec nag n =
          Sim.Engine.hold t.fault.Fault.Plan.callback_retry;
          if
            (* still this wait, not a later one on the same page (an
               upgrade); an abort ends it too *)
            xs.x_wait_page = page
            && xs.x_wait_since = since
            && xs.x_wait_end = None
            && t.epoch = xs.x_epoch
          then begin
            ask ~retry:n
              (List.map fst (Cc.Lock_table.holders t.lock_table ~page));
            nag (n + 1)
          end
        in
        nag 1);
  if t.cfg.Sys_params.callback_grace > 0.0 then arm_detector t
  else if not xs.x_aborted then check_deadlock t ~requester:client

let callback =
  {
    locking with
    on_block = call_back;
    on_queue =
      (fun t ->
        (* the queued client may hold a callback an active transaction
           waits on ([mpl_victim]) *)
        if t.cfg.Sys_params.callback_grace > 0.0 then arm_detector t);
    (* lock waits end in a callback round: name the phase accordingly in
       the waterfall *)
    wait_kind = Obs.Span.Cb_round;
    abort_locks =
      (fun t xs ->
        (* keep retained locks from previous transactions; release only
           what this transaction acquired, and undo its upgrades *)
        List.iter
          (fun p -> Cc.Lock_table.release t.lock_table ~page:p xs.x_client)
          xs.x_new_locks;
        List.iter
          (fun p -> Cc.Lock_table.downgrade t.lock_table ~page:p xs.x_client)
          xs.x_upgraded);
    commit_locks =
      (fun t ~client ~release_pages ->
        (* give up the pages whose callbacks the client deferred; keep
           everything else, as [Proto.callback_retained] says *)
        List.iter
          (fun p -> Cc.Lock_table.release t.lock_table ~page:p client)
          release_pages;
        match
          Proto.callback_retained
            ~retain_writes:t.cfg.Sys_params.callback_retain_writes
        with
        | Proto.Write -> ()
        | Proto.Read ->
            List.iter
              (fun p ->
                match Cc.Lock_table.held t.lock_table ~page:p client with
                | Some Cc.Lock_table.X ->
                    Cc.Lock_table.downgrade t.lock_table ~page:p client
                | Some Cc.Lock_table.S | None -> ())
              (Cc.Lock_table.pages_held_by t.lock_table client));
  }

(* ------------------------------------------------------------------ *)
(* Construction: the one place the algorithm is selected               *)
(* ------------------------------------------------------------------ *)

let create ?(fault = Fault.Plan.none) ?(label = "") eng ~cfg ~db ~algo
    ~rng ~metrics =
  Sys_params.validate cfg;
  if
    fault.Fault.Plan.server_crash_mean > 0.0
    && cfg.Sys_params.n_log_disks <= 0
  then
    invalid_arg
      "Server.create: a server-crash plan needs a log disk (n_log_disks > \
       0), or committed state cannot survive the crash";
  let cpu =
    Sim.Facility.create eng ~name:(label ^ "server-cpu")
      ~capacity:cfg.Sys_params.n_server_cpus ()
  in
  let disks =
    Array.init cfg.Sys_params.n_data_disks (fun i ->
        Storage.Disk.create eng
          ~rng:(Sim.Rng.split rng (Printf.sprintf "disk-%d" i))
          ~name:(Printf.sprintf "%sdata-disk-%d" label i)
          cfg.Sys_params.disk)
  in
  let log_disk_dev =
    if cfg.Sys_params.n_log_disks > 0 then
      Some
        (Storage.Disk.create eng ~rng:(Sim.Rng.split rng "log-disk")
           ~name:(label ^ "log-disk") cfg.Sys_params.disk)
    else None
  in
  let log =
    Option.map (fun d -> Storage.Log_manager.create eng ~disk:d ()) log_disk_dev
  in
  let faulty = Fault.Plan.active fault in
  let proto, notify =
    match algo with
    | Proto.Two_phase _ -> (locking, cfg.Sys_params.notify_updates)
    | Proto.No_wait { notify } ->
        (locking, if notify = None then cfg.Sys_params.notify_updates else notify)
    | Proto.Callback -> (callback, cfg.Sys_params.notify_updates)
    | Proto.Certification _ -> (certification, None)
  in
  {
    eng;
    cfg;
    db;
    algo;
    proto;
    notify;
    rng;
    metrics;
    sport = { Proto.cpu; mips = cfg.Sys_params.server_mips };
    disks;
    log;
    log_disk_dev;
    buf = Storage.Lru_pool.create ~capacity:cfg.Sys_params.buffer_size;
    lock_table = Cc.Lock_table.create ();
    version_table = Cc.Version_table.create ();
    active = Hashtbl.create 256;
    active_by_client = Hashtbl.create 256;
    admitting = Hashtbl.create 16;
    n_active = 0;
    ready = Queue.create ();
    tombstones = Hashtbl.create 1024;
    in_flight = Hashtbl.create 64;
    detector_armed = false;
    fault;
    faulty;
    completed = Hashtbl.create 1024;
    last_heard =
      Float.Array.make
        (if faulty then cfg.Sys_params.n_clients else 0)
        infinity;
    cached_by = Hashtbl.create 1024;
    srv_faulty = fault.Fault.Plan.server_crash_mean > 0.0;
    epoch = 0;
    down = false;
    down_since = 0.0;
    durable_commits = Hashtbl.create 64;
    unforced_page = Hashtbl.create 64;
    to_client =
      (fun _ ~parent:_ ~xid:_ ~retry:_ _ -> invalid_arg "Server: not connected");
    to_shard =
      (fun _ ~parent:_ ~retry:_ _ -> invalid_arg "Server: not connected");
    shard_id = 0;
    peers = [||];
    prepared = Hashtbl.create 16;
    deciding = Hashtbl.create 16;
    pinned = Hashtbl.create 64;
    local_commits = 0;
  }

let start ?crash_rng t =
  if t.faulty && t.fault.Fault.Plan.lease > 0.0 then
    Sim.Engine.spawn t.eng ~name:"lease-sweep" (fun () ->
        let rec loop () =
          Sim.Engine.hold (t.fault.Fault.Plan.lease /. 2.0);
          lease_sweep t;
          loop ()
        in
        loop ());
  if t.srv_faulty then begin
    let srng =
      match crash_rng with
      | Some r -> r
      | None -> Fault.Injector.server_stream t.fault
    in
    Sim.Engine.spawn t.eng ~name:"server-gremlin" (fun () ->
        let rec loop () =
          Sim.Engine.hold
            (Sim.Rng.exponential srng
               ~mean:t.fault.Fault.Plan.server_crash_mean);
          crash_server t;
          Sim.Engine.hold
            (Float.max 1e-4
               (Sim.Rng.exponential srng
                  ~mean:t.fault.Fault.Plan.server_restart_mean));
          recover_server t;
          loop ()
        in
        loop ());
    if t.fault.Fault.Plan.checkpoint_interval > 0.0 then
      Sim.Engine.spawn t.eng ~name:"server-checkpoint" (fun () ->
          let rec loop () =
            Sim.Engine.hold t.fault.Fault.Plan.checkpoint_interval;
            (match t.log with
            | Some log when not t.down ->
                Metrics.record_checkpoint t.metrics;
                let versions = Storage.Log_manager.checkpoint log in
                if Obs.Sink.trace_on () then
                  Obs.Sink.emit (Sim.Engine.now t.eng)
                    (Obs.Event.Checkpoint { versions })
            | Some _ | None -> ());
            loop ()
          in
          loop ())
  end

let handle_msg t ~ctx = function
  | Proto.Fetch { client; xid; req; mode; pages; no_wait } ->
      settle_superseded t ~client ~xid;
      handle_fetch t ~ctx ~client ~xid ~req ~mode ~pages ~no_wait
  | Proto.Cert_read { client; xid; req; pages } ->
      settle_superseded t ~client ~xid;
      handle_cert_read t ~ctx ~client ~xid ~req ~pages
  | Proto.Commit { client; xid; req; read_set; update_pages; release_pages } ->
      settle_superseded t ~client ~xid;
      handle_commit t ~ctx ~client ~xid ~req ~read_set ~update_pages
        ~release_pages
  | Proto.Callback_reply { client; page } ->
      Cc.Lock_table.release t.lock_table ~page client
  | Proto.Release_retained { client; pages } ->
      List.iter (fun page -> Cc.Lock_table.release t.lock_table ~page client) pages
  | Proto.Recovered { client } ->
      (* best-effort fast path (this notice itself is droppable; the lease
         sweep is the reliable backstop) *)
      reclaim_client t ~client
  | Proto.Prepare { client; xid; req; decider; read_set; update_pages; release_pages } ->
      settle_superseded t ~client ~xid;
      handle_prepare t ~ctx ~client ~xid ~req ~decider ~read_set ~update_pages
        ~release_pages
  | Proto.Decision { client; xid; req; commit } ->
      participate t ~ctx ~client ~xid ~req (Twopc.Participant.Decision commit)
  | Proto.Outcome_query { shard; xid } -> handle_outcome_query t ~ctx ~shard ~xid

let deliver t ~ctx msg =
  if t.down then () (* a dead server hears nothing; clients retransmit *)
  else begin
    (if t.faulty then
       let cid = Proto.c2s_client msg in
       (* shard-to-shard messages carry no client to keep alive *)
       if cid >= 0 then
         Float.Array.set t.last_heard cid (Sim.Engine.now t.eng));
    spawn_handler t (fun () -> handle_msg t ~ctx msg)
  end

let server_down t = t.down
let log_manager t = t.log
let local_commits t = t.local_commits
