(* Presumed-abort two-phase commit as two pure state machines.  See
   twopc.mli for the protocol; this file holds every outcome decision,
   and nothing else: no engine, log, lock table, network or span. *)

(* Insert [x] into an ascending list unless present: the coordinator's
   tables stay canonical whatever order messages arrive in. *)
let rec insert_sorted k v = function
  | [] -> [ (k, v) ]
  | ((k', _) as e) :: rest as l ->
      if k < k' then (k, v) :: l
      else if k = k' then l
      else e :: insert_sorted k v rest

module Coordinator = struct
  type phase = Voting | Commit_point_sent | Committing | Aborting

  type 'v t = {
    participants : int list;
    decider : int;
    phase : phase;
    votes : (int * bool) list;
    acks : (int * (bool * 'v)) list;
    stale : int list;
  }

  type 'v input =
    | Vote of { shard : int; ok : bool; stale : int list }
    | Decide of { commit : bool; amnesia : bool }
    | Ack of { shard : int; committed : bool; versions : 'v }
    | Retransmit
    | Superseded

  type action =
    | Send_prepare of int
    | Send_decision of { shard : int; commit : bool }
    | Decision_point of bool
    | Reply
    | Forget of { aborted : bool }
    | Contradiction of string

  let start participants =
    let decider = List.hd participants in
    ( { participants; decider; phase = Voting; votes = []; acks = []; stale = [] },
      List.map (fun s -> Send_prepare s) participants )

  let acked st s = List.mem_assoc s st.acks

  let unacked_decisions st ~commit =
    List.filter_map
      (fun s ->
        if acked st s then None else Some (Send_decision { shard = s; commit }))
      st.participants

  (* The client hears the outcome only once every participant has
     acknowledged it: the server lock table is keyed by client, so the
     next transaction must not reach a shard that still holds a slice. *)
  let check_done st acts =
    if List.for_all (acked st) st.participants then (st, acts @ [ Reply ])
    else (st, acts)

  let committed st = st.phase = Committing

  (* Sends suspend the interpreter, and other inputs may be stepped
     meanwhile: a decision or prepare is still due only while its shard
     has not answered, and the reply only once every shard has. *)
  let due st = function
    | Send_prepare s -> not (List.mem_assoc s st.votes)
    | Send_decision { shard; _ } -> not (acked st shard)
    | Reply -> List.for_all (acked st) st.participants
    | Decision_point _ | Forget _ | Contradiction _ -> true

  (* The outcome is settled (for commit: the commit point is durable):
     fan it out to everyone unacked. *)
  let drive st ~commit =
    let st = { st with phase = (if commit then Committing else Aborting) } in
    check_done st (unacked_decisions st ~commit)

  let step st input =
    match (input, st.phase) with
    | Vote { shard; ok; stale }, Voting ->
        if List.mem_assoc shard st.votes then (st, [])
        else
          let st = { st with votes = insert_sorted shard ok st.votes } in
          if not ok then
            ({ st with stale = stale @ st.stale }, [ Decision_point false ])
          else if List.for_all (fun s -> List.mem_assoc s st.votes) st.participants
          then (st, [ Decision_point true ])
          else (st, [])
    | Vote { ok = false; stale; _ }, Aborting ->
        (* a late no-vote still names its stale pages, so the restart
           drops them *)
        ({ st with stale = stale @ st.stale }, [])
    | Vote _, (Aborting | Commit_point_sent | Committing) -> (st, [])
    | Decide { amnesia = true; _ }, _ ->
        (* the coordinator crashes at its decision point: participants
           stay prepared and lean on the retransmitted commit or the
           termination protocol *)
        (st, [ Forget { aborted = false } ])
    | Decide { commit = true; _ }, _ ->
        (* the decider's durable commit record is the global commit
           point, so nobody else may hear "commit" before it acks *)
        ( { st with phase = Commit_point_sent },
          [ Send_decision { shard = st.decider; commit = true } ] )
    | Decide { commit = false; _ }, _ -> drive st ~commit:false
    | Ack { shard; committed; versions }, phase -> (
        let record st =
          { st with acks = insert_sorted shard (committed, versions) st.acks }
        in
        match phase with
        | Voting | Commit_point_sent ->
            let st = record st in
            if committed then
              (* durable-commit evidence: the outcome is commit *)
              drive st ~commit:true
            else if shard = st.decider || phase = Voting then
              (* the decider's slice is gone with no durable commit
                 record, or a participant presumed abort before we
                 decided: under presumed abort that is the outcome *)
              drive st ~commit:false
            else
              (* a non-decider presumed abort while our commit is at the
                 decider: its ack settles that shard either way *)
              check_done st []
        | Committing ->
            if not committed then
              (st, [ Contradiction "participant-aborted-committed-transaction" ])
            else check_done (record st) []
        | Aborting ->
            if committed then
              (st, [ Contradiction "participant-committed-aborted-transaction" ])
            else check_done (record st) [])
    | Retransmit, Voting ->
        ( st,
          List.filter_map
            (fun s ->
              if List.mem_assoc s st.votes then None else Some (Send_prepare s))
            st.participants )
    | Retransmit, Commit_point_sent ->
        (st, [ Send_decision { shard = st.decider; commit = true } ])
    | Retransmit, Committing -> (st, unacked_decisions st ~commit:true)
    | Retransmit, Aborting -> (st, unacked_decisions st ~commit:false)
    | Superseded, Voting ->
        (* the client moved on while votes were out: the outcome is
           abort, and nobody has heard it yet *)
        ( st,
          List.map
            (fun s -> Send_decision { shard = s; commit = false })
            st.participants
          @ [ Forget { aborted = true } ] )
    | Superseded, Aborting ->
        (st, unacked_decisions st ~commit:false @ [ Forget { aborted = false } ])
    | Superseded, (Commit_point_sent | Committing) ->
        (st, [ Forget { aborted = false } ])
end

module Participant = struct
  type 'r status =
    | Absent
    | Preparing
    | Prepared
    | Deciding of bool
    | Committed of 'r option
    | Aborted of 'r option

  type input =
    | Prepare
    | Prepare_admitted
    | Forced
    | Decision of bool
    | Query
    | Nag of { decider : bool }
    | Superseded

  type 'r action =
    | Vote of bool
    | Replay of 'r
    | Ack of bool
    | Ack_durable
    | Admit
    | Prepare_slice
    | Hold_in_doubt
    | Resolve of { commit : bool; ack : bool }
    | Kill
    | Tombstone of { force : bool }
    | Answer of bool
    | Query_decider

  let status ~prepared ~deciding ~tombstoned ~finished ~durable ~live =
    if prepared then Prepared
    else
      match deciding with
      | Some commit -> Deciding commit
      | None -> (
          if tombstoned then Aborted None
          else
            match finished with
            | Some (reply, true) -> Committed (Some reply)
            | Some (reply, false) -> Aborted (Some reply)
            | None ->
                if durable then Committed None
                else if live then Preparing
                else Absent)

  let rec step st input =
    match (st, input) with
    (* the fix for duplicates in the deciding window: the handler that
       is applying the commit sends the one ack; anything else about
       this xid waits for it (a query asker nags again) *)
    | Deciding true, _ -> (st, [])
    (* an abort's tombstone is set when its resolution starts, so a
       duplicate already gets the final answer — except a query: the
       decider promises abort only once that is durable *)
    | Deciding false, Query -> (st, [])
    | Deciding false, _ -> (st, snd (step (Aborted None) input))
    (* the prepare record is durable: the slice is in doubt, unless it
       was aborted while the record was being forced *)
    | Preparing, Forced -> (Prepared, [ Hold_in_doubt; Vote true ])
    | Aborted None, Forced -> (st, [ Vote false ])
    | (Absent | Prepared | Aborted (Some _) | Committed _), Forced -> (st, [])
    | Prepared, (Prepare | Prepare_admitted) -> (st, [ Vote true ])
    | Prepared, Decision commit ->
        (Deciding commit, [ Resolve { commit; ack = true } ])
    | Prepared, Query ->
        (* no durable commit record here: presumed abort, answered only
           once our own slice is resolved the same way *)
        (Deciding false, [ Resolve { commit = false; ack = false }; Answer false ])
    | Prepared, Nag { decider = true } | Prepared, Superseded ->
        (* the decider's own slice is still undecided: its commit record
           does not exist, so abort is safe; a superseded slice can only
           have been a global abort *)
        (Deciding false, [ Resolve { commit = false; ack = false } ])
    | Prepared, Nag { decider = false } -> (st, [ Query_decider ])
    | (Absent | Preparing), Prepare -> (Preparing, [ Admit ])
    | Preparing, Prepare_admitted -> (st, [ Prepare_slice ])
    | Absent, Prepare_admitted -> (st, [])
    | Aborted None, (Prepare | Prepare_admitted) -> (st, [ Vote false ])
    | (Aborted (Some r) | Committed (Some r)), (Prepare | Prepare_admitted)
    | (Aborted (Some r) | Committed (Some r)), Decision true ->
        (st, [ Replay r ])
    | Committed None, (Prepare | Prepare_admitted | Decision true) ->
        (st, [ Ack_durable ])
    | (Absent | Preparing | Aborted None), Decision true -> (st, [ Ack false ])
    | Preparing, Decision false ->
        (Aborted None, [ Kill; Tombstone { force = false }; Ack false ])
    | (Absent | Aborted _ | Committed _), Decision false ->
        (Aborted None, [ Tombstone { force = false }; Ack false ])
    | Committed _, Query -> (st, [ Answer true ])
    | Preparing, Query -> (Aborted None, [ Kill; Answer false ])
    | Aborted None, Query -> (st, [ Answer false ])
    | (Absent | Aborted (Some _)), Query ->
        (* the negative answer is a promise: force the tombstone so no
           post-crash retransmission can vote yes *)
        (Aborted None, [ Tombstone { force = true }; Answer false ])
    | (Absent | Preparing | Aborted _ | Committed _), (Nag _ | Superseded) ->
        (st, [])
end
