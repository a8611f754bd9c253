type caching = Intra | Inter
type notify_mode = Push | Invalidate

type algorithm =
  | Two_phase of caching
  | Certification of caching
  | Callback
  | No_wait of { notify : notify_mode option }

let algorithm_name = function
  | Two_phase Inter -> "2PL"
  | Two_phase Intra -> "2PL-intra"
  | Certification Inter -> "cert"
  | Certification Intra -> "cert-intra"
  | Callback -> "callback"
  | No_wait { notify = None } -> "no-wait"
  | No_wait { notify = Some Push } -> "no-wait+notify"
  | No_wait { notify = Some Invalidate } -> "no-wait+inval"

let section5_algorithms =
  [
    Two_phase Inter;
    Callback;
    No_wait { notify = None };
    No_wait { notify = Some Push };
  ]

let inter_caching = function
  | Two_phase Intra | Certification Intra -> false
  | Two_phase Inter | Certification Inter | Callback | No_wait _ -> true

type lock_kind = Read | Write
let callback_retained ~retain_writes = if retain_writes then Write else Read
type fetch_page = { page : int; cached_version : int option }

type c2s =
  | Fetch of {
      client : int;
      xid : int;
      req : int;
      mode : lock_kind;
      pages : fetch_page list;
      no_wait : bool;
    }
  | Cert_read of { client : int; xid : int; req : int; pages : fetch_page list }
  | Commit of {
      client : int;
      xid : int;
      req : int;
      read_set : (int * int) list;
      update_pages : int list;
      release_pages : int list;
    }
  | Callback_reply of { client : int; page : int }
  | Release_retained of { client : int; pages : int list }
  | Recovered of { client : int }
  (* Two-phase commit (sharded topologies only).  [Prepare] carries the
     shard's slice of the commit; [decider] names the shard whose durable
     commit record is the commit point.  [Decision] delivers the outcome.
     [Outcome_query] is shard-to-shard: a participant with an in-doubt
     prepared transaction asks the decider for the outcome. *)
  | Prepare of {
      client : int;
      xid : int;
      req : int;
      decider : int;
      read_set : (int * int) list;
      update_pages : int list;
      release_pages : int list;
    }
  | Decision of { client : int; xid : int; req : int; commit : bool }
  | Outcome_query of { shard : int; xid : int }

type s2c =
  | Fetch_reply of { xid : int; req : int; data : (int * int) list }
  | Cert_reply of { xid : int; req : int; data : (int * int) list }
  | Commit_reply of {
      xid : int;
      req : int;
      ok : bool;
      new_versions : (int * int) list;
      stale_pages : int list;
    }
  | Aborted of { xid : int; stale_pages : int list }
  | Callback_request of { page : int }
  | Update_push of { page : int; version : int }
  | Invalidate_page of { page : int }
  | Server_restart of { epoch : int }
  (* 2PC replies: a participant's vote on a [Prepare], and its
     acknowledgement of a [Decision] (with the slice of new versions it
     installed when committing).  Consumed by the client-side router;
     they never reach the client transaction loop. *)
  | Vote of { xid : int; req : int; shard : int; ok : bool; stale_pages : int list }
  | Decision_ack of {
      xid : int;
      req : int;
      shard : int;
      committed : bool;
      new_versions : (int * int) list;
    }

(* 2^30 attempts per client is far beyond any simulation run *)
let xid_stride = 1 lsl 30
let make_xid ~client ~seq = (client * xid_stride) + seq
let xid_client xid = xid / xid_stride

let c2s_client = function
  | Fetch { client; _ }
  | Cert_read { client; _ }
  | Commit { client; _ }
  | Callback_reply { client; _ }
  | Release_retained { client; _ }
  | Recovered { client }
  | Prepare { client; _ }
  | Decision { client; _ } ->
      client
  | Outcome_query _ -> -1 (* sent by a shard, not a client *)

(* The transaction a client-to-server message is about; -1 for messages
   not bound to one (callback replies, retained-lock releases, reboots). *)
let c2s_xid = function
  | Fetch { xid; _ }
  | Cert_read { xid; _ }
  | Commit { xid; _ }
  | Prepare { xid; _ }
  | Decision { xid; _ }
  | Outcome_query { xid; _ } ->
      xid
  | Callback_reply _ | Release_retained _ | Recovered _ -> -1

(* Stable lower-case kind tags for causal tags and per-kind network
   accounting. *)
let c2s_kind = function
  | Fetch _ -> "fetch"
  | Cert_read _ -> "cert_read"
  | Commit _ -> "commit"
  | Callback_reply _ -> "callback_reply"
  | Release_retained _ -> "release_retained"
  | Recovered _ -> "recovered"
  | Prepare _ -> "prepare"
  | Decision _ -> "decision"
  | Outcome_query _ -> "outcome_query"

let s2c_kind = function
  | Fetch_reply _ -> "fetch_reply"
  | Cert_reply _ -> "cert_reply"
  | Commit_reply _ -> "commit_reply"
  | Aborted _ -> "aborted"
  | Callback_request _ -> "callback_request"
  | Update_push _ -> "update_push"
  | Invalidate_page _ -> "invalidate"
  | Server_restart _ -> "server_restart"
  | Vote _ -> "vote"
  | Decision_ack _ -> "decision_ack"

(* The transaction a server-to-client message is about; -1 for messages
   not bound to one (callbacks, notifications, restarts). *)
let s2c_xid = function
  | Fetch_reply { xid; _ }
  | Cert_reply { xid; _ }
  | Commit_reply { xid; _ }
  | Aborted { xid; _ }
  | Vote { xid; _ }
  | Decision_ack { xid; _ } ->
      xid
  | Callback_request _ | Update_push _ | Invalidate_page _ | Server_restart _
    ->
      -1

let c2s_bytes ~control ~page_size = function
  | Fetch _ | Cert_read _ | Callback_reply _ | Release_retained _
  | Recovered _ | Decision _ | Outcome_query _ ->
      control
  | Commit { update_pages; _ } | Prepare { update_pages; _ } ->
      control + (page_size * List.length update_pages)

let s2c_bytes ~control ~page_size = function
  | Fetch_reply { data; _ } | Cert_reply { data; _ } ->
      control + (page_size * List.length data)
  | Commit_reply _ | Aborted _ | Callback_request _ | Invalidate_page _
  | Server_restart _ | Vote _ | Decision_ack _ ->
      control
  | Update_push _ -> control + page_size

type port = { cpu : Sim.Facility.t; mips : float }
