(* Typed, nested transaction spans.

   A span is an [Open]/[Close] pair of records in a per-domain buffer,
   identified by an id that is unique within one replication.  Parents
   are explicit ids rather than per-track bracket stacks, so concurrent
   spans on the same track (two server handlers, a fetch racing a
   callback) never produce false containment violations.

   The buffer is a {!Ring} reached through the {!Sink} installed around
   [Sim.Engine.run], and travels back to the caller by value — identical
   at any [Sim.Pool] job count.  Emission only reads the clock it is
   handed; it never holds or draws randomness, so span-off runs are
   bit-identical to spans-on runs modulo the buffer. *)

type track = Client of int | Server of int

type kind =
  | Xact
  | Attempt
  | Think
  | Client_cpu
  | Fetch_wait
  | Cert_wait
  | Commit_wait
  | Abort_work
  | Restart_wait
  | Lock_wait
  | Cb_round
  | Disk_io
  | Log_force
  | Prepare_2pc
  | Decide_2pc

let kind_name = function
  | Xact -> "xact"
  | Attempt -> "attempt"
  | Think -> "think"
  | Client_cpu -> "client_cpu"
  | Fetch_wait -> "fetch_wait"
  | Cert_wait -> "cert_wait"
  | Commit_wait -> "commit_wait"
  | Abort_work -> "abort_work"
  | Restart_wait -> "restart_wait"
  | Lock_wait -> "lock_wait"
  | Cb_round -> "callback_round"
  | Disk_io -> "disk_io"
  | Log_force -> "log_force"
  | Prepare_2pc -> "2pc_prepare"
  | Decide_2pc -> "2pc_decide"

let track_name = function
  | Client c -> Printf.sprintf "client %d" c
  | Server s -> Printf.sprintf "shard %d" s

type ev =
  | Open of { id : int; parent : int; track : track; kind : kind; xid : int }
  | Close of { id : int; ok : bool }

type entry = { sp_time : float; sp_seq : int; sp_ev : ev }

type t = {
  ring : entry Ring.t;
  mutable next_id : int;  (* span ids, unique within this buffer/rep *)
}

let create ?limit () = { ring = Ring.create ?limit (); next_id = 0 }
let entries t = Ring.to_array t.ring
let dropped t = Ring.dropped t.ring
let add t ~time ev =
  Ring.push t.ring { sp_time = time; sp_seq = Ring.written t.ring; sp_ev = ev }

let open_span t ~time ~track ~kind ~parent ~xid =
  let id = t.next_id in
  t.next_id <- id + 1;
  add t ~time (Open { id; parent; track; kind; xid });
  id

let close_span t ~time ~ok id = add t ~time (Close { id; ok })

(* ------------------------------------------------------------------ *)
(* Self-validation                                                     *)
(* ------------------------------------------------------------------ *)

type check = {
  ck_opened : int;
  ck_closed : int;
  ck_unclosed : int;  (* spans still open when the run ended: allowed *)
  ck_errors : string list;  (* empty iff the record is well-formed *)
}

(* Well-formedness of one replication's span record:

   - timestamps are non-decreasing in emission order;
   - every [Close] matches exactly one earlier [Open] (unless entries
     were dropped to the ring limit, which can orphan a close);
   - no id is opened or closed twice;
   - a child opens no earlier than its parent opens, and its close is
     no later than its parent's close (parent containment).

   Spans still open at the end of the record are legal — the engine
   stops mid-flight at [max_sim_time] — and are only counted. *)
let validate ?(dropped = 0) (es : entry array) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let opened : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let parent : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let closed : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let n_open = ref 0 and n_close = ref 0 in
  let last_time = ref neg_infinity and last_seq = ref min_int in
  Array.iter
    (fun e ->
      if e.sp_seq <= !last_seq then err "seq not increasing at #%d" e.sp_seq;
      last_seq := e.sp_seq;
      if e.sp_time < !last_time then
        err "time regressed at #%d: %.9f < %.9f" e.sp_seq e.sp_time !last_time;
      last_time := e.sp_time;
      match e.sp_ev with
      | Open { id; parent = p; _ } ->
          incr n_open;
          if Hashtbl.mem opened id then err "span %d opened twice" id
          else begin
            Hashtbl.replace opened id e.sp_time;
            if p >= 0 then begin
              Hashtbl.replace parent id p;
              match Hashtbl.find_opt opened p with
              | Some pt ->
                  if Hashtbl.mem closed p then
                    err "span %d opened under already-closed parent %d" id p
                  else if e.sp_time < pt then
                    err "span %d opens before its parent %d" id p
              | None ->
                  (* the parent's open may itself have been dropped *)
                  if dropped = 0 then err "span %d has unknown parent %d" id p
            end
          end
      | Close { id; _ } ->
          incr n_close;
          if Hashtbl.mem closed id then err "span %d closed twice" id
          else if not (Hashtbl.mem opened id) then begin
            if dropped = 0 then err "close of never-opened span %d" id
          end
          else begin
            Hashtbl.replace closed id e.sp_time;
            match Hashtbl.find_opt parent id with
            | Some p when Hashtbl.mem opened p -> (
                match Hashtbl.find_opt closed p with
                | Some pt when e.sp_time > pt ->
                    err "span %d closes after its parent %d" id p
                | _ -> ())
            | _ -> ()
          end)
    es;
  {
    ck_opened = !n_open;
    ck_closed = !n_close;
    ck_unclosed = Hashtbl.length opened - Hashtbl.length closed;
    ck_errors = List.rev !errors;
  }

let check_ok c = c.ck_errors = []

let pp_check fmt c =
  Format.fprintf fmt "spans: %d opened, %d closed, %d still open at end"
    c.ck_opened c.ck_closed c.ck_unclosed;
  List.iter (fun e -> Format.fprintf fmt "@.  error: %s" e) c.ck_errors
