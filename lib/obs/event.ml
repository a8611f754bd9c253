type t =
  | Client_send of { client : int; xid : int; what : string }
  | Server_reply of { client : int; xid : int; what : string }
  | Lock_wait of { client : int; page : int; mode : string }
  | Lock_grant of { client : int; page : int; mode : string }
  | Deadlock of { victim_client : int; cycle : int list }
  | Abort of { client : int; xid : int; reason : string }
  | Callback of { holder : int; page : int }
  | Notify of { client : int; page : int; push : bool }
  | Commit of { client : int; xid : int; n_updates : int }
  | Disk_read of { page : int }
  | Msg_dropped of { bytes : int }
  | Msg_delayed of { bytes : int; by : float }
  | Msg_duplicated of { bytes : int; copies : int }
  | Client_crash of { client : int }
  | Client_recover of { client : int; downtime : float }
  | Lock_reclaimed of { client : int; pages : int list }
  | Retransmit of { client : int; xid : int }
  | Server_crash of { killed : int }
  | Server_recover of { downtime : float; recovery : float }
  | Checkpoint of { versions : int }
  | Log_replayed of { records : int; pages : int }

let to_string = function
  | Client_send { client; xid; what } ->
      Printf.sprintf "client %d -> server: %s (xid %d)" client what xid
  | Server_reply { client; xid; what } ->
      Printf.sprintf "server -> client %d: %s (xid %d)" client what xid
  | Lock_wait { client; page; mode } ->
      Printf.sprintf "client %d blocks for %s lock on page %d" client mode page
  | Lock_grant { client; page; mode } ->
      Printf.sprintf "client %d granted %s lock on page %d" client mode page
  | Deadlock { victim_client; cycle } ->
      Printf.sprintf "deadlock [%s]: victim is client %d"
        (String.concat " -> " (List.map string_of_int cycle))
        victim_client
  | Abort { client; xid; reason } ->
      Printf.sprintf "abort client %d xid %d (%s)" client xid reason
  | Callback { holder; page } ->
      Printf.sprintf "callback request to client %d for page %d" holder page
  | Notify { client; page; push } ->
      Printf.sprintf "%s to client %d for page %d"
        (if push then "update push" else "invalidation")
        client page
  | Commit { client; xid; n_updates } ->
      Printf.sprintf "commit client %d xid %d (%d updated pages)" client xid
        n_updates
  | Disk_read { page } -> Printf.sprintf "disk read page %d" page
  | Msg_dropped { bytes } -> Printf.sprintf "message dropped (%d bytes)" bytes
  | Msg_delayed { bytes; by } ->
      Printf.sprintf "message delayed %.4fs (%d bytes)" by bytes
  | Msg_duplicated { bytes; copies } ->
      Printf.sprintf "message duplicated x%d (%d bytes)" copies bytes
  | Client_crash { client } -> Printf.sprintf "client %d crashed" client
  | Client_recover { client; downtime } ->
      Printf.sprintf "client %d recovered after %.4fs" client downtime
  | Lock_reclaimed { client; pages } ->
      Printf.sprintf "lease expired: reclaimed %d lock(s) of client %d [%s]"
        (List.length pages) client
        (String.concat " " (List.map string_of_int pages))
  | Retransmit { client; xid } ->
      Printf.sprintf "client %d retransmits request (xid %d)" client xid
  | Server_crash { killed } ->
      Printf.sprintf "server crashed (%d in-flight transaction(s) killed)"
        killed
  | Server_recover { downtime; recovery } ->
      Printf.sprintf "server recovered after %.4fs (%.4fs log replay)"
        downtime recovery
  | Checkpoint { versions } ->
      Printf.sprintf "checkpoint (%d page version(s) snapshotted)" versions
  | Log_replayed { records; pages } ->
      Printf.sprintf "log replayed (%d record(s), %d page(s) read)" records
        pages

let kind = function
  | Client_send _ -> "client_send"
  | Server_reply _ -> "server_reply"
  | Lock_wait _ -> "lock_wait"
  | Lock_grant _ -> "lock_grant"
  | Deadlock _ -> "deadlock"
  | Abort _ -> "abort"
  | Callback _ -> "callback"
  | Notify _ -> "notify"
  | Commit _ -> "commit"
  | Disk_read _ -> "disk_read"
  | Msg_dropped _ -> "msg_dropped"
  | Msg_delayed _ -> "msg_delayed"
  | Msg_duplicated _ -> "msg_duplicated"
  | Client_crash _ -> "client_crash"
  | Client_recover _ -> "client_recover"
  | Lock_reclaimed _ -> "lock_reclaimed"
  | Retransmit _ -> "retransmit"
  | Server_crash _ -> "server_crash"
  | Server_recover _ -> "server_recover"
  | Checkpoint _ -> "checkpoint"
  | Log_replayed _ -> "log_replayed"

let actor = function
  | Client_send { client; _ }
  | Server_reply { client; _ }
  | Lock_wait { client; _ }
  | Lock_grant { client; _ }
  | Abort { client; _ }
  | Notify { client; _ }
  | Commit { client; _ }
  | Client_crash { client }
  | Client_recover { client; _ }
  | Lock_reclaimed { client; _ }
  | Retransmit { client; _ } ->
      Some client
  | Callback { holder; _ } -> Some holder
  | Deadlock { victim_client; _ } -> Some victim_client
  | Disk_read _ | Msg_dropped _ | Msg_delayed _ | Msg_duplicated _
  | Server_crash _ | Server_recover _ | Checkpoint _ | Log_replayed _ ->
      None
