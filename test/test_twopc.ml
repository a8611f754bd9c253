(* Bounded exhaustive search over the pure 2PC machines of [Core.Twopc].

   A small world — one client and its router, 2-3 shards, 1-2
   transactions — is driven through every order of message delivery,
   with a fault budget: duplicated and dropped messages, a participant
   crash that recovers from its durable log alone, coordinator amnesia
   at the decision point, and one execution-phase slice killed (a
   deadlock victim) whose client moves on.  Log forces complete as steps
   of their own, so the window in which a shard is deciding exists here
   as it does in the server; nag timers and client retransmissions are
   steps too.  The model interprets the machines' actions as
   [Core.Server] and [Shard.Router] do, and keeps ghost state: what each
   shard applied to each transaction, and what the client was told.

   Checked in every reachable state: no transaction commits on one shard
   and aborts on another (or both on one), the router's contradiction
   checks, and a client outcome that agrees with what the shards
   applied.  From every reachable state, once faults stop, a fair run
   must decide every transaction on every shard and answer the client.
   Visited states are deduplicated; the count is printed. *)

module C = Core.Twopc.Coordinator
module P = Core.Twopc.Participant

type msg =
  | Exec of { x : int; s : int }  (* a transaction's first request *)
  | Prepare of { x : int; s : int }
  | Decision of { x : int; s : int; commit : bool }
  | Vote of { x : int; s : int; ok : bool }
  | Ack of { x : int; s : int; committed : bool }
  | Query of { x : int; asker : int; decider : int }
  | Killed of { x : int }  (* a shard aborted the client's transaction *)

type outcome = Open | Did_commit | Did_abort

type slice = {
  live : bool;  (* an admitted transaction, not aborted or closed *)
  forcing : bool;  (* its prepare record is being forced *)
  prepared : bool;
  deciding : bool option;
  then_ack : bool;  (* once decided: record and send the ack *)
  then_send : msg list;  (* once decided: and send these *)
  tomb : bool;
  finished : bool option;  (* the recorded acknowledgement *)
  durable : bool;  (* commit record found at recovery *)
  rebuilt : bool;  (* prepared again from the log: no live transaction *)
  log_prepare : bool;
  log_commit : bool;
  log_abort : bool;
  applied : outcome;  (* ghost *)
}

type phase = Executing of int | Awaiting of int | Done

type budget = {
  dups : int;
  drops : int;
  crashes : int;
  amnesias : int;
  timers : int;  (* retransmissions and outcome queries *)
  kills : int;
}

type state = {
  shards : slice array array;  (* shard -> xid -> slice *)
  net : msg list;  (* a multiset, kept sorted *)
  attempt : (int * unit C.t) option;
  phase : phase;
  told : outcome array;  (* ghost: the client's outcome per xid *)
  budget : budget;
}

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let empty_slice =
  {
    live = false;
    forcing = false;
    prepared = false;
    deciding = None;
    then_ack = false;
    then_send = [];
    tomb = false;
    finished = None;
    durable = false;
    rebuilt = false;
    log_prepare = false;
    log_commit = false;
    log_abort = false;
    applied = Open;
  }

let show_msg = function
  | Exec { x; s } -> Printf.sprintf "Exec(x%d->s%d)" x s
  | Prepare { x; s } -> Printf.sprintf "Prepare(x%d->s%d)" x s
  | Decision { x; s; commit } ->
      Printf.sprintf "Decision(x%d->s%d,%s)" x s
        (if commit then "commit" else "abort")
  | Vote { x; s; ok } -> Printf.sprintf "Vote(x%d,s%d,%b)" x s ok
  | Ack { x; s; committed } -> Printf.sprintf "Ack(x%d,s%d,%b)" x s committed
  | Query { x; asker; decider } ->
      Printf.sprintf "Query(x%d,s%d->s%d)" x asker decider
  | Killed { x } -> Printf.sprintf "Killed(x%d)" x

(* ---- state plumbing ---------------------------------------------------- *)

let send st m = { st with net = List.merge compare [ m ] st.net }

let rec remove_one m = function
  | [] -> []
  | m' :: rest -> if m = m' then rest else m' :: remove_one m rest

let slice st s x = st.shards.(s).(x)

let set_slice st s x sl =
  let shards = Array.copy st.shards in
  shards.(s) <- Array.copy shards.(s);
  shards.(s).(x) <- sl;
  { st with shards }

let update st s x f = set_slice st s x (f (slice st s x))
let n_shards st = Array.length st.shards
let n_xacts st = Array.length st.told
let decider = 0 (* every transaction spans every shard; the lowest decides *)

(* What shard [s] applied to [x]: a shard applies one outcome, once. *)
let apply st s x outcome =
  let sl = slice st s x in
  if sl.applied <> Open && sl.applied <> outcome then
    violation "shard %d applied both outcomes to x%d" s x;
  set_slice st s x { sl with applied = outcome }

(* ---- invariants -------------------------------------------------------- *)

let check st =
  for x = 0 to n_xacts st - 1 do
    let applied o = Array.exists (fun sh -> sh.(x).applied = o) st.shards in
    if applied Did_commit && applied Did_abort then
      violation "atomicity: x%d committed on one shard, aborted on another" x;
    (match st.told.(x) with
    | Did_commit when applied Did_abort ->
        violation "client told commit, a shard aborted x%d" x
    | Did_abort when applied Did_commit ->
        violation "client told abort, a shard committed x%d" x
    | Did_commit | Did_abort | Open -> ())
  done

(* ---- the client and its router ----------------------------------------- *)

(* The client starts transaction [x]: its first request to every shard. *)
let begin_xact st x =
  if x >= n_xacts st then { st with phase = Done }
  else
    let st = { st with phase = Executing x } in
    let rec go st s =
      if s = n_shards st then st else go (send st (Exec { x; s })) (s + 1)
    in
    go st 0

let tell st x outcome =
  let told = Array.copy st.told in
  told.(x) <- outcome;
  { st with told }

(* Run coordinator actions for attempt [x].  Amnesia branches. *)
let rec coordinate st x actions =
  match (st.attempt, actions) with
  | _, [] -> [ st ]
  | None, _ :: _ -> [ st ]
  | Some (_, cst), a :: rest -> (
      if not (C.due cst a) then coordinate st x rest
      else
        match a with
        | C.Send_prepare s -> coordinate (send st (Prepare { x; s })) x rest
        | C.Send_decision { shard; commit } ->
            coordinate (send st (Decision { x; s = shard; commit })) x rest
        | C.Decision_point commit ->
            let go st amnesia =
              let cst, acts = C.step cst (C.Decide { commit; amnesia }) in
              coordinate { st with attempt = Some (x, cst) } x (acts @ rest)
            in
            let b = st.budget in
            go st false
            @
            if b.amnesias > 0 then
              go { st with budget = { b with amnesias = b.amnesias - 1 } } true
            else []
        | C.Reply ->
            let st = tell { st with attempt = None } x
                (if C.committed cst then Did_commit else Did_abort) in
            [ begin_xact st (x + 1) ]
        | C.Forget _ -> [ { st with attempt = None } ]
        | C.Contradiction kind -> violation "router: %s" kind)

let coord_step st input =
  match st.attempt with
  | Some (x, cst) ->
      let cst, acts = C.step cst input in
      coordinate { st with attempt = Some (x, cst) } x acts
  | None -> [ st ]

(* The client sends (or re-sends) its commit for [x]. *)
let commit st x =
  let st = { st with phase = Awaiting x } in
  match st.attempt with
  | Some (x', _) when x' = x -> coord_step st C.Retransmit
  | Some _ | None ->
      let cst, acts = C.start (List.init (n_shards st) Fun.id) in
      coordinate { st with attempt = Some (x, cst) } x acts

(* The client moves on from [x] without an outcome: the router drops the
   attempt, firing aborts if votes were still out. *)
let restart st x =
  let sts = coord_step st C.Superseded in
  List.map
    (fun st -> begin_xact (tell { st with attempt = None } x Did_abort) (x + 1))
    sts

(* ---- a participant ----------------------------------------------------- *)

let status sl =
  P.status ~prepared:sl.prepared ~deciding:sl.deciding ~tombstoned:sl.tomb
    ~finished:(Option.map (fun c -> (c, c)) sl.finished)
    ~durable:sl.durable ~live:sl.live

(* Abort a slice's live transaction: tombstone, release. *)
let kill st s x =
  let st = update st s x (fun sl -> { sl with live = false; tomb = true }) in
  apply st s x Did_abort

let rec participate st s x ?(asker = -1) input =
  let sl = slice st s x in
  let expect, actions = P.step (status sl) input in
  let outs = act st s x ~asker ~resolving:false actions in
  if not (List.exists (function P.Admit | P.Prepare_slice -> true | _ -> false) actions)
  then
    List.iter
      (fun st' ->
        let now = status (slice st' s x) in
        (* a live slice's abort resolves at once *)
        if now <> expect && not (expect = P.Deciding false && now = P.Aborted None) then
          violation "s%d x%d: the step's status is not what its actions made" s x)
      outs;
  outs

and act st s x ~asker ~resolving = function
  | [] -> [ st ]
  | a :: rest -> (
      let continue st = act st s x ~asker ~resolving rest in
      if resolving then
        match a with
        | P.Answer commit ->
            let m = Decision { x; s = asker; commit } in
            continue (update st s x (fun sl -> { sl with then_send = m :: sl.then_send }))
        | _ -> violation "s%d: an action after Resolve the model cannot defer" s
      else
        match a with
        | P.Vote ok -> continue (send st (Vote { x; s; ok }))
        | P.Replay committed | P.Ack committed ->
            continue (send st (Ack { x; s; committed }))
        | P.Ack_durable -> continue (send st (Ack { x; s; committed = true }))
        | P.Admit ->
            let st = update st s x (fun sl -> { sl with live = true }) in
            List.concat_map continue (participate st s x P.Prepare_admitted)
        | P.Prepare_slice ->
            (* validation passes (the prepare record is forced next) or
               fails (the slice aborts and votes no) *)
            let ok = update st s x (fun sl -> { sl with forcing = true }) in
            let no = send (kill st s x) (Vote { x; s; ok = false }) in
            continue ok @ continue no
        | P.Hold_in_doubt ->
            continue (update st s x (fun sl -> { sl with prepared = true }))
        | P.Resolve { commit = false; ack } when not (slice st s x).rebuilt ->
            (* the live transaction aborts at once; its abort record is
               forced in the background, so a crash may lose it *)
            let st = kill (update st s x (fun sl -> { sl with prepared = false })) s x in
            let st =
              if ack then
                send (update st s x (fun sl -> { sl with finished = Some false }))
                  (Ack { x; s; committed = false })
              else st
            in
            continue st
        | P.Resolve { commit; ack } ->
            let st =
              update st s x (fun sl ->
                  {
                    sl with
                    prepared = false;
                    deciding = Some commit;
                    then_ack = ack;
                    then_send = [];
                  })
            in
            act st s x ~asker ~resolving:true rest
        | P.Kill -> continue (kill st s x)
        | P.Tombstone { force } ->
            continue
              (update st s x (fun sl ->
                   { sl with tomb = true; log_abort = sl.log_abort || force }))
        | P.Answer commit -> continue (send st (Decision { x; s = asker; commit }))
        | P.Query_decider -> continue (send st (Query { x; asker = s; decider })))

(* Traffic for a newer transaction settles the client's older prepared
   slices on that shard. *)
let settle_superseded st s x =
  let rec go sts x' =
    if x' >= x then sts
    else
      go
        (List.concat_map
           (fun st ->
             if (slice st s x').prepared then participate st s x' P.Superseded
             else [ st ])
           sts)
        (x' + 1)
  in
  go [ st ] 0

(* A log force completes. *)
let prepare_forced st s x =
  let st = update st s x (fun sl -> { sl with forcing = false; log_prepare = true }) in
  participate st s x P.Forced

let decided st s x =
  let sl = slice st s x in
  let commit = Option.get sl.deciding in
  let st =
    set_slice st s x
      {
        sl with
        deciding = None;
        live = false;
        rebuilt = false;
        tomb = sl.tomb || not commit;
        log_commit = sl.log_commit || commit;
        log_abort = sl.log_abort || not commit;
        finished = (if sl.then_ack then Some commit else sl.finished);
        then_ack = false;
        then_send = [];
      }
  in
  let st = apply st s x (if commit then Did_commit else Did_abort) in
  let st = if sl.then_ack then send st (Ack { x; s; committed = commit }) else st in
  List.fold_left send st sl.then_send

(* The shard loses everything volatile and rebuilds from its log.  An
   abort that left no record is forgotten with it: that incarnation of
   the slice is gone, and a later prepare starts a new one. *)
let crash st s =
  let shards = Array.copy st.shards in
  shards.(s) <-
    Array.map
      (fun sl ->
        {
          empty_slice with
          log_prepare = sl.log_prepare;
          log_commit = sl.log_commit;
          log_abort = sl.log_abort;
          applied =
            (if sl.applied = Did_abort && not sl.log_abort then Open
             else sl.applied);
          durable = sl.log_commit;
          tomb = sl.log_abort;
          prepared = sl.log_prepare && not (sl.log_commit || sl.log_abort);
          rebuilt = sl.log_prepare && not (sl.log_commit || sl.log_abort);
        })
      shards.(s);
  { st with shards }

(* ---- delivery and successors -------------------------------------------- *)

let deliver st m =
  match m with
  | Exec { x; s } ->
      List.map
        (fun st ->
          if status (slice st s x) = P.Absent then
            update st s x (fun sl -> { sl with live = true })
          else st)
        (settle_superseded st s x)
  | Prepare { x; s } ->
      List.concat_map (fun st -> participate st s x P.Prepare) (settle_superseded st s x)
  | Decision { x; s; commit } -> participate st s x (P.Decision commit)
  | Query { x; asker; decider } -> participate st decider x ~asker P.Query
  | Vote { x; s; ok } -> (
      match st.attempt with
      | Some (x', _) when x' = x -> coord_step st (C.Vote { shard = s; ok; stale = [] })
      | Some _ | None -> [ st ])
  | Ack { x; s; committed } -> (
      match st.attempt with
      | Some (x', _) when x' = x ->
          coord_step st (C.Ack { shard = s; committed; versions = () })
      | Some _ | None -> [ st ])
  | Killed { x } -> (
      match st.phase with
      | Executing x' | Awaiting x' when x' = x -> restart st x
      | Executing _ | Awaiting _ | Done -> [ st ])

let spend st f = { st with budget = f st.budget }

(* A step: its label and, when taken, where it leads (several states
   when the model branches) or the invariant it breaks. *)
type step = string Lazy.t * (unit -> (state list, string) result)

let step label f : step =
  (label, fun () -> match f () with sts -> Ok sts | exception Violation v -> Error v)

let deliverable st m =
  (* a prepare queues on the slice's chain while one is being forced *)
  match m with Prepare { x; s } -> not (slice st s x).forcing | _ -> true

let rec distinct = function
  | a :: (b :: _ as rest) -> if a = b then distinct rest else a :: distinct rest
  | l -> l

(* The steps no fault is needed for: log forces complete, messages
   arrive, the client commits. *)
let normal_steps st =
  let steps = ref [] in
  let add s = steps := s :: !steps in
  Array.iteri
    (fun s sh ->
      Array.iteri
        (fun x sl ->
          if sl.forcing then
            add
              (step (lazy (Printf.sprintf "prepare record forced s%d x%d" s x))
                 (fun () -> prepare_forced st s x));
          if sl.deciding <> None then
            add
              (step (lazy (Printf.sprintf "decision forced s%d x%d" s x))
                 (fun () -> [ decided st s x ])))
        sh)
    st.shards;
  List.iter
    (fun m ->
      if deliverable st m then
        add
          (step (lazy ("deliver " ^ show_msg m)) (fun () ->
               deliver { st with net = remove_one m st.net } m)))
    (distinct st.net);
  (match st.phase with
  | Executing x
    when not
           (List.exists
              (function Exec { x = x'; _ } | Killed { x = x' } -> x' = x | _ -> false)
              st.net) ->
      (* the client commits once its requests are answered *)
      add (step (lazy (Printf.sprintf "client commits x%d" x)) (fun () -> commit st x))
  | Executing _ | Awaiting _ | Done -> ());
  List.rev !steps

(* Timers: the client's retransmission and the in-doubt nag.  [budgeted]
   spends the timer budget on those that send messages. *)
let timer_steps ~budgeted st =
  let spend_timer st =
    if budgeted then spend st (fun b -> { b with timers = b.timers - 1 }) else st
  in
  let can = (not budgeted) || st.budget.timers > 0 in
  let steps = ref [] in
  (match st.phase with
  | Awaiting x when can ->
      steps :=
        [
          step (lazy (Printf.sprintf "client retransmits x%d" x)) (fun () ->
              commit (spend_timer st) x);
        ]
  | Executing _ | Awaiting _ | Done -> ());
  Array.iteri
    (fun s sh ->
      Array.iteri
        (fun x sl ->
          if sl.prepared && (s = decider || can) then
            let st = if s = decider then st else spend_timer st in
            steps :=
              !steps
              @ [ step (lazy (Printf.sprintf "nag timer s%d x%d" s x)) (fun () ->
                      participate st s x (P.Nag { decider = s = decider })) ])
        sh)
    st.shards;
  !steps

type config = {
  shards : int;
  xacts : int;
  faults : budget;
  crash_decider : bool;  (* may the decider's shard crash too? *)
  known_defect : bool;  (* a counterexample is expected *)
}

let fault_steps cfg st =
  let b = st.budget in
  let steps = ref [] in
  let add s = steps := s :: !steps in
  List.iter
    (fun m ->
      (* a transaction's requests are answered before it commits; a
         shard's abort notice may be lost, not repeated *)
      let droppable = match m with Exec _ -> false | _ -> true in
      let duplicable = match m with Exec _ | Killed _ -> false | _ -> true in
      (* a duplicate is delivered while its original stays in flight:
         the same behaviours as copying it first, fewer states *)
      if duplicable && b.dups > 0 && deliverable st m then
        add
          (step (lazy ("deliver a duplicate of " ^ show_msg m)) (fun () ->
               deliver { st with budget = { b with dups = b.dups - 1 } } m));
      if droppable && b.drops > 0 then
        add
          (step (lazy ("drop " ^ show_msg m)) (fun () ->
               [
                 {
                   st with
                   net = remove_one m st.net;
                   budget = { b with drops = b.drops - 1 };
                 };
               ])))
    (distinct st.net);
  if b.crashes > 0 then
    for s = (if cfg.crash_decider then 0 else 1) to n_shards st - 1 do
      add
        (step (lazy (Printf.sprintf "crash s%d" s)) (fun () ->
             [ crash { st with budget = { b with crashes = b.crashes - 1 } } s ]))
    done;
  (* a deadlock victim waits for a lock, so its client has not sent the
     commit yet *)
  (match st.phase with
  | Executing x when b.kills > 0 ->
      for s = 0 to n_shards st - 1 do
        let sl = slice st s x in
        if sl.live && (not sl.forcing) && (not sl.prepared) && sl.deciding = None
        then
          add
            (step (lazy (Printf.sprintf "deadlock kills x%d on s%d" x s))
               (fun () ->
                 let st = { st with budget = { b with kills = b.kills - 1 } } in
                 [ send (kill st s x) (Killed { x }) ]))
      done
  | Executing _ | Awaiting _ | Done -> ());
  List.rev !steps

(* ---- the search ---------------------------------------------------------- *)

let initial cfg =
  begin_xact
    {
      shards = Array.init cfg.shards (fun _ -> Array.make cfg.xacts empty_slice);
      net = [];
      attempt = None;
      phase = Executing 0;
      told = Array.make cfg.xacts Open;
      budget = cfg.faults;
    }
    0

(* The deduplication key: the state packed into ints, digested. *)
let key (st : state) =
  let b = Buffer.create 64 in
  let int i = Buffer.add_int32_le b (Int32.of_int i) in
  let flag c i = if c then 1 lsl i else 0 in
  let opt o i = match o with None -> 0 | Some c -> (if c then 2 else 1) lsl i in
  let outcome = function Open -> 0 | Did_commit -> 1 | Did_abort -> 2 in
  let msg = function
    | Exec { x; s } -> (x lsl 8) lor (s lsl 4)
    | Prepare { x; s } -> 1 lor (x lsl 8) lor (s lsl 4)
    | Decision { x; s; commit } -> 2 lor (x lsl 8) lor (s lsl 4) lor flag commit 12
    | Vote { x; s; ok } -> 3 lor (x lsl 8) lor (s lsl 4) lor flag ok 12
    | Ack { x; s; committed } -> 4 lor (x lsl 8) lor (s lsl 4) lor flag committed 12
    | Query { x; asker; decider } -> 5 lor (x lsl 8) lor (asker lsl 4) lor (decider lsl 12)
    | Killed { x } -> 6 lor (x lsl 8)
  in
  Array.iter
    (Array.iter (fun sl ->
         int
           (flag sl.live 0 lor flag sl.forcing 1 lor flag sl.prepared 2
           lor opt sl.deciding 3 lor flag sl.then_ack 5 lor flag sl.tomb 6
           lor opt sl.finished 7 lor flag sl.durable 9 lor flag sl.rebuilt 10
           lor flag sl.log_prepare 11 lor flag sl.log_commit 12
           lor flag sl.log_abort 13 lor (outcome sl.applied lsl 14));
         List.iter (fun m -> int (msg m)) sl.then_send;
         int (-1)))
    st.shards;
  List.iter (fun m -> int (msg m)) st.net;
  int (-1);
  (match st.attempt with
  | None -> int (-1)
  | Some (x, c) ->
      int x;
      int
        (match c.C.phase with
        | C.Voting -> 0
        | C.Commit_point_sent -> 1
        | C.Committing -> 2
        | C.Aborting -> 3);
      List.iter (fun (s, ok) -> int ((s lsl 1) lor flag ok 0)) c.C.votes;
      int (-1);
      List.iter (fun (s, (ok, ())) -> int ((s lsl 1) lor flag ok 0)) c.C.acks;
      int (-1));
  int (match st.phase with Executing x -> x | Awaiting x -> 16 + x | Done -> 32);
  Array.iter (fun o -> int (outcome o)) st.told;
  Digest.string (Buffer.contents b)

(* A state is covered by a visited one with the same key and no less
   budget left: everything it can reach, that one reaches too. *)
let covers b b' =
  b.dups >= b'.dups && b.drops >= b'.drops && b.crashes >= b'.crashes
  && b.amnesias >= b'.amnesias && b.timers >= b'.timers && b.kills >= b'.kills

let finished st =
  st.phase = Done
  && Array.for_all
       (Array.for_all (fun sl ->
            (not sl.forcing) && (not sl.prepared) && sl.deciding = None))
       st.shards

(* Once faults stop, a fair run — the first normal step, else the first
   timer — must decide every slice and answer the client.  Runs that
   reach a state already shown to finish stop there. *)
let terminates good st k =
  (* [labels]: the fault-free steps taken, newest first *)
  let rec run st k path labels n =
    let fail why = Error (List.rev labels, "once faults stop, " ^ why) in
    if Hashtbl.mem good k || finished st then Ok (k :: path)
    else if n = 0 then fail "no progress in 200 steps"
    else
      let next =
        match normal_steps st with
        | s :: _ -> Some s
        | [] -> ( match timer_steps ~budgeted:false st with s :: _ -> Some s | [] -> None)
      in
      match next with
      | None -> fail "nothing can happen"
      | Some (label, take) -> (
          let labels = Lazy.force label :: labels in
          let run_on st' = run st' (key st') (k :: path) labels (n - 1) in
          match take () with
          | Ok (st' :: _) -> (
              match check st' with
              | () -> run_on st'
              | exception Violation v -> Error (List.rev labels, v))
          | Error v -> Error (List.rev labels, v)
          | Ok [] -> fail "nothing can happen")
  in
  match run st k [] [] 200 with
  | Ok path ->
      List.iter (fun k -> Hashtbl.replace good k ()) path;
      None
  | Error e -> Some e

type result = {
  states : int;
  counterexample : (string list * string) option;  (* trace, violation *)
}

let search cfg =
  (* visited states by key and budget, each with the step that found it *)
  let seen : (string * budget, (string * budget) option * string Lazy.t) Hashtbl.t =
    Hashtbl.create 65536
  in
  let budgets : (string, budget list) Hashtbl.t = Hashtbl.create 65536 in
  let good = Hashtbl.create 65536 in
  let trace id =
    let rec go id acc =
      match Hashtbl.find seen id with
      | None, _ -> acc
      | Some parent, label -> go parent (Lazy.force label :: acc)
    in
    go id []
  in
  let covered k b =
    List.exists (fun b' -> covers b' b)
      (Option.value ~default:[] (Hashtbl.find_opt budgets k))
  in
  let visit_id (k, b) parent label =
    let known = Option.value ~default:[] (Hashtbl.find_opt budgets k) in
    Hashtbl.replace budgets k (b :: known);
    Hashtbl.replace seen (k, b) (parent, label)
  in
  let queue = Queue.create () in
  let st0 = initial cfg in
  let id0 = (key st0, st0.budget) in
  visit_id id0 None (lazy "");
  Queue.add (st0, id0) queue;
  let rec loop () =
    match Queue.take_opt queue with
    | None -> None
    | Some (st, id) -> (
        match terminates good st (fst id) with
        | Some (completion, why) ->
            Some (trace id @ List.map (fun l -> "(no fault) " ^ l) completion, why)
        | None ->
            (* timeouts are long next to message and log latency: a
               timer fires only once nothing else can happen *)
            let normal = normal_steps st in
            let steps =
              normal
              @ (if normal = [] then timer_steps ~budgeted:true st else [])
              @ fault_steps cfg st
            in
            let rec visit = function
              | [] -> loop ()
              | (label, take) :: rest -> (
                  match take () with
                  | Error v -> Some (trace id @ [ Lazy.force label ], v)
                  | Ok sts -> visit_states label sts rest)
            and visit_states label sts rest =
              match sts with
              | [] -> visit rest
              | st' :: more -> (
                  let k' = key st' in
                  if covered k' st'.budget then visit_states label more rest
                  else begin
                    let id' = (k', st'.budget) in
                    visit_id id' (Some id) label;
                    match check st' with
                    | () ->
                        Queue.add (st', id') queue;
                        visit_states label more rest
                    | exception Violation v -> Some (trace id', v)
                  end)
            in
            visit steps)
  in
  let counterexample = loop () in
  { states = Hashtbl.length seen; counterexample }

let none = { dups = 0; drops = 0; crashes = 0; amnesias = 0; timers = 0; kills = 0 }

(* Budgets sized so the whole search stays near a second: the full
   budget on the smallest world, part of it on the larger two. *)
let configs =
  [
    ( "2 shards, 1 transaction",
      {
        shards = 2;
        xacts = 1;
        faults = { dups = 2; drops = 1; crashes = 1; amnesias = 1; timers = 2; kills = 1 };
        crash_decider = false;
        known_defect = false;
      } );
    ( "3 shards, 1 transaction",
      {
        shards = 3;
        xacts = 1;
        faults = { none with drops = 1; amnesias = 1; timers = 1 };
        crash_decider = false;
        known_defect = false;
      } );
    ( "2 shards, 2 transactions",
      {
        shards = 2;
        xacts = 2;
        faults = { none with crashes = 1; amnesias = 1; timers = 1; kills = 1 };
        crash_decider = false;
        known_defect = false;
      } );
    (* Known open defect: a decider that answers a query by aborting its
       own live prepared slice sends the answer before its abort record
       is durable (the record is forced in the background).  If it then
       crashes, it recovers the slice in doubt and can still commit it,
       while the shard it answered has aborted.  Crashes elsewhere keep
       to non-deciders until that is fixed; this case pins the
       counterexample, so a fix shows up here. *)
    ( "decider crash (known defect)",
      {
        shards = 2;
        xacts = 1;
        faults = { none with drops = 1; crashes = 1; timers = 1 };
        crash_decider = true;
        known_defect = true;
      } );
  ]

let results =
  List.map
    (fun (name, cfg) ->
      let t0 = Sys.time () in
      let r = search cfg in
      Printf.printf "twopc search, %s: %d states explored in %.2f s%s\n%!" name
        r.states
        (Sys.time () -. t0)
        (match r.counterexample with
        | None -> ""
        | Some (trace, v) ->
            Printf.sprintf "\n  %s after %d steps: %s\n    %s"
              (if cfg.known_defect then "known defect, counterexample"
               else "VIOLATION")
              (List.length trace) v
              (String.concat "\n    " trace));
      (name, cfg, r))
    configs

let test (name, cfg, r) =
  Alcotest.test_case name `Quick (fun () ->
      match r.counterexample with
      | None when cfg.known_defect ->
          Alcotest.fail "the known defect is gone: make this an ordinary case"
      | None -> ()
      | Some _ when cfg.known_defect -> ()
      | Some (trace, v) ->
          Alcotest.failf "%s after %d steps:\n  %s" v (List.length trace)
            (String.concat "\n  " trace))

let () = Alcotest.run "twopc" [ ("search", List.map test results) ]
