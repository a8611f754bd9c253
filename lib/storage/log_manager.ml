type record =
  | Begin of { xid : int }
  | Update of { xid : int; page : int; version : int }
  | Commit of { xid : int }
  | Abort of { xid : int }
  | Checkpoint of { versions : (int * int) list }
  | Prepare of { xid : int; decider : int; read_pages : int list }

type replay_stats = {
  records_replayed : int;
  pages_read : int;
  xacts_redone : int;
  xacts_discarded : int;
}

type t = {
  disk : Disk.t;
  per_page : int;
  mutable commits : int;
  mutable aborts : int;
  mutable pages : int;
  (* the typed log: [recs.(0 .. len-1)] is the in-memory tail,
     [recs.(0 .. durable-1)] is what a crash preserves *)
  mutable recs : record array;
  mutable len : int;
  mutable durable : int;
  (* replay cursor: index of the last durable checkpoint record and the
     count of log pages forced since it (what recovery must read back) *)
  mutable ckpt_index : int;
  mutable pages_since_ckpt : int;
}

let create _eng ~disk ?(updates_per_log_page = 8) () =
  if updates_per_log_page <= 0 then
    invalid_arg "Log_manager.create: updates_per_log_page <= 0";
  {
    disk;
    per_page = updates_per_log_page;
    commits = 0;
    aborts = 0;
    pages = 0;
    recs = Array.make 64 (Begin { xid = 0 });
    len = 0;
    durable = 0;
    ckpt_index = -1;
    pages_since_ckpt = 0;
  }

let append t r =
  if t.len = Array.length t.recs then begin
    let bigger = Array.make (2 * t.len) r in
    Array.blit t.recs 0 bigger 0 t.len;
    t.recs <- bigger
  end;
  t.recs.(t.len) <- r;
  t.len <- t.len + 1

let log_pages_for t ~n_updates =
  if n_updates < 0 then invalid_arg "Log_manager.log_pages_for: negative";
  max 1 ((n_updates + t.per_page - 1) / t.per_page)

let force t ~n_updates =
  let pages = log_pages_for t ~n_updates in
  t.pages <- t.pages + pages;
  t.pages_since_ckpt <- t.pages_since_ckpt + pages;
  t.durable <- t.len;
  (* dedicated disk, sequential append: transfers only, no seek *)
  Disk.access t.disk ~seeks:0 ~pages

let force_pending t = if t.len > t.durable then force t ~n_updates:0

let log_begin t ~xid =
  (* buffered only: a begin record rides out with the next force, and a
     crash before that force loses it (with the transaction it opened) *)
  append t (Begin { xid })

let append_commit t ~xid ~updates =
  (* Buffered, charged nothing: the records become durable with the next
     force — whoever issues it.  Appending at version-bump time (before
     any suspension point) gives group-commit ordering: a reader that
     sees the bumped version and forces its own commit necessarily makes
     this writer's records durable too, so a crash can never lose a
     write that a durably-committed reader observed. *)
  List.iter
    (fun (page, version) -> append t (Update { xid; page; version }))
    updates;
  append t (Commit { xid })

let force_commit t ~n_updates =
  t.commits <- t.commits + 1;
  force t ~n_updates

let force_abort t ~xid =
  append t (Abort { xid });
  t.aborts <- t.aborts + 1;
  force t ~n_updates:0

let force_prepare t ~xid ~decider ~read_pages ~updates =
  (* 2PC phase one: the yes-vote must survive a crash, so the update
     records and the prepare record are forced before voting.  The
     decision later re-appends the updates with its commit record
     ([append_commit]), so a replay window opening at a checkpoint taken
     between prepare and decision still finds them. *)
  List.iter
    (fun (page, version) -> append t (Update { xid; page; version }))
    updates;
  append t (Prepare { xid; decider; read_pages });
  force t ~n_updates:(List.length updates)

let crash t =
  (* the volatile log tail (appended but never forced) is lost *)
  t.len <- t.durable;
  if t.ckpt_index >= t.len then t.ckpt_index <- -1

let replay_range t ~from ~into =
  let pending : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let prepared : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let redone = ref 0 and discarded = ref 0 and scanned = ref 0 in
  for i = from to t.durable - 1 do
    incr scanned;
    match t.recs.(i) with
    | Begin { xid } -> if not (Hashtbl.mem pending xid) then Hashtbl.replace pending xid []
    | Update { xid; page; version } ->
        let prev = try Hashtbl.find pending xid with Not_found -> [] in
        Hashtbl.replace pending xid ((page, version) :: prev)
    | Commit { xid } ->
        let ups = try Hashtbl.find pending xid with Not_found -> [] in
        List.iter
          (fun (page, version) ->
            let cur = try Hashtbl.find into page with Not_found -> 0 in
            if version > cur then Hashtbl.replace into page version)
          ups;
        Hashtbl.remove pending xid;
        Hashtbl.remove prepared xid;
        incr redone
    | Abort { xid } ->
        Hashtbl.remove pending xid;
        Hashtbl.remove prepared xid;
        incr discarded
    | Prepare { xid; _ } -> Hashtbl.replace prepared xid ()
    | Checkpoint { versions } ->
        Hashtbl.reset into;
        List.iter (fun (page, v) -> Hashtbl.replace into page v) versions
  done;
  (* transactions with durable updates but no durable commit record are
     uncommitted at the crash point: discard, never install.  Prepared
     transactions are neither — they stay in doubt ([in_doubt]) until the
     2PC termination protocol resolves them. *)
  Hashtbl.iter
    (fun xid _ -> if not (Hashtbl.mem prepared xid) then incr discarded)
    pending;
  {
    records_replayed = !scanned;
    pages_read = 0;
    xacts_redone = !redone;
    xacts_discarded = !discarded;
  }

let checkpoint t =
  (* Snapshot only what the log proves committed — never the server's
     volatile version table, which may run ahead of the log between a
     version bump and its commit force (write-ahead rule).  The buffered
     tail IS covered: this checkpoint's own force makes it durable, and
     its records sit before the Checkpoint record in the log, so a
     snapshot that skipped them would leave their commits in a blind
     spot no future replay-from-checkpoint could see. *)
  t.durable <- t.len;
  let into = Hashtbl.create 64 in
  let from = if t.ckpt_index >= 0 then t.ckpt_index else 0 in
  ignore (replay_range t ~from ~into);
  let versions =
    Hashtbl.fold (fun p v acc -> (p, v) :: acc) into [] |> List.sort compare
  in
  append t (Checkpoint { versions });
  t.ckpt_index <- t.len - 1;
  let pages = log_pages_for t ~n_updates:(List.length versions) in
  t.pages <- t.pages + pages;
  t.durable <- t.len;
  (* the snapshot resets the replay window: recovery reads from here *)
  t.pages_since_ckpt <- 0;
  Disk.access t.disk ~seeks:0 ~pages;
  List.length versions

let durable_commit_updates t ~xid =
  let ups = ref [] and committed = ref false in
  for i = 0 to t.durable - 1 do
    match t.recs.(i) with
    | Update { xid = x; page; version } when x = xid ->
        ups := (page, version) :: !ups
    | Commit { xid = x } when x = xid -> committed := true
    | _ -> ()
  done;
  (* 2PC logs a transaction's updates twice (at prepare and with the
     commit decision): collapse the duplicates *)
  if !committed then Some (List.sort_uniq compare !ups) else None

let replay t ~into =
  let from = if t.ckpt_index >= 0 then t.ckpt_index else 0 in
  let stats = replay_range t ~from ~into in
  (* sequential read-back of everything forced since the checkpoint; one
     seek to position the head at the replay start *)
  let pages = max 1 t.pages_since_ckpt in
  Disk.access t.disk ~seeks:1 ~pages;
  { stats with pages_read = pages }

let durable_outcomes t =
  let out = ref [] in
  for i = 0 to t.durable - 1 do
    match t.recs.(i) with
    | Commit { xid } -> out := (xid, true) :: !out
    | Abort { xid } -> out := (xid, false) :: !out
    | Begin _ | Update _ | Checkpoint _ | Prepare _ -> ()
  done;
  List.rev !out

let durable_committed_pairs t =
  let pending : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  for i = 0 to t.durable - 1 do
    match t.recs.(i) with
    | Update { xid; page; version } ->
        let prev = try Hashtbl.find pending xid with Not_found -> [] in
        Hashtbl.replace pending xid ((page, version) :: prev)
    | Commit { xid } -> (
        match Hashtbl.find_opt pending xid with
        | Some ups ->
            out := List.rev_append ups !out;
            Hashtbl.remove pending xid
        | None -> ())
    | Abort { xid } -> Hashtbl.remove pending xid
    | Begin _ | Checkpoint _ | Prepare _ -> ()
  done;
  List.sort_uniq compare !out

let in_doubt t =
  (* prepared transactions with no durable outcome, over the whole
     durable prefix (records are never deleted, so scanning from 0 is
     exact regardless of checkpoints) *)
  let updates : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let open_prep = ref [] in
  for i = 0 to t.durable - 1 do
    match t.recs.(i) with
    | Update { xid; page; version } ->
        let prev = try Hashtbl.find updates xid with Not_found -> [] in
        Hashtbl.replace updates xid ((page, version) :: prev)
    | Prepare { xid; decider; read_pages } ->
        if not (List.exists (fun (x, _, _) -> x = xid) !open_prep) then
          open_prep := (xid, decider, read_pages) :: !open_prep
    | Commit { xid } | Abort { xid } ->
        open_prep := List.filter (fun (x, _, _) -> x <> xid) !open_prep
    | Begin _ | Checkpoint _ -> ()
  done;
  List.rev_map
    (fun (xid, decider, read_pages) ->
      let ups =
        try List.sort_uniq compare (Hashtbl.find updates xid)
        with Not_found -> []
      in
      (xid, decider, read_pages, ups))
    !open_prep

let committed_versions t =
  let into = Hashtbl.create 64 in
  ignore (replay_range t ~from:0 ~into);
  Hashtbl.fold (fun p v acc -> (p, v) :: acc) into []
  |> List.sort compare

let records_logged t = t.len
let durable_records t = t.durable
let commits_logged t = t.commits
let aborts_logged t = t.aborts
let log_pages_written t = t.pages

let reset_stats t =
  t.commits <- 0;
  t.aborts <- 0;
  t.pages <- 0
