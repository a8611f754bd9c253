type 'a t = {
  eng : Engine.t;
  msgs : 'a Queue.t;
  blocked : (unit -> unit) Queue.t;
  mutable served : (string * (unit -> unit)) option;  (* name, drain loop *)
}

let create eng =
  { eng; msgs = Queue.create (); blocked = Queue.create (); served = None }

let pending mb = Queue.length mb.msgs

(* A served mailbox has its consumer exactly while it is non-empty (the
   consumer dequeues a message only after handling it), so the first
   message into an empty one spawns it, in a blocked receiver's slot. *)
let send mb v =
  Queue.add v mb.msgs;
  match mb.served with
  | Some (name, drain) ->
      if Queue.length mb.msgs = 1 then Engine.spawn mb.eng ~name drain
  | None -> (
      match Queue.take_opt mb.blocked with
      | Some resume -> resume ()
      | None -> ())

let serve mb ~name f =
  if mb.served <> None || Queue.length mb.msgs + Queue.length mb.blocked > 0
  then invalid_arg "Mailbox.serve: mailbox in use";
  let rec drain () =
    match Queue.peek_opt mb.msgs with
    | Some v ->
        f v;
        ignore (Queue.take mb.msgs);
        drain ()
    | None -> ()
  in
  mb.served <- Some (name, drain)

let check_unserved mb fn =
  if mb.served <> None then
    invalid_arg ("Mailbox." ^ fn ^ ": the mailbox is served")

(* A woken receiver may find the mailbox drained by another receiver that was
   woken first at the same instant, hence the retry loop. *)
let rec recv mb =
  check_unserved mb "recv";
  match Queue.take_opt mb.msgs with
  | Some v -> v
  | None ->
      Engine.suspend (fun resume -> Queue.add resume mb.blocked);
      recv mb

let recv_opt mb =
  check_unserved mb "recv_opt";
  Queue.take_opt mb.msgs

(* The timed receive races a wake from [send] against a timer event; a
   shared state cell guarantees exactly one of them resumes the process.
   Queues cannot delete interior entries, so a timed-out waiter leaves its
   closure in [blocked] as a tombstone: when [send] eventually pops it, it
   forwards the wake to the next live waiter instead of dropping it. *)
let recv_timeout mb ~timeout =
  check_unserved mb "recv_timeout";
  match Queue.take_opt mb.msgs with
  | Some v -> Some v
  | None ->
      let state = ref `Waiting in
      Engine.suspend (fun resume ->
          Queue.add
            (fun () ->
              match !state with
              | `Waiting ->
                  state := `Woken;
                  resume ()
              | `Timed_out | `Woken -> (
                  match Queue.take_opt mb.blocked with
                  | Some next -> next ()
                  | None -> ()))
            mb.blocked;
          Engine.schedule mb.eng
            ~at:(Engine.now mb.eng +. timeout)
            (fun () ->
              match !state with
              | `Waiting ->
                  state := `Timed_out;
                  resume ()
              | `Woken | `Timed_out -> ()));
      (* Either a message arrived (Woken) or the timer fired (Timed_out).
         A woken receiver can still lose the message to a racing plain
         [recv]; report that as an early timeout — callers retry. *)
      Queue.take_opt mb.msgs
