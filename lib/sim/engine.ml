open Effect
open Effect.Deep

type _ Effect.t += Hold : float -> unit Effect.t
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

exception Process_exit

type pstat = {
  p_name : string;
  mutable p_runs : int;
  mutable p_holds : int;
  mutable p_hold_time : float;
}

type process_profile = {
  pp_name : string;
  pp_runs : int;
  pp_holds : int;
  pp_hold_time : float;
}

type profile = {
  pr_events : int;
  pr_spawned : int;
  pr_holds : int;
  pr_wakes : int;
  pr_heap_hwm : int;
  pr_live_hwm : int;
  pr_per_process : process_profile list;
}

(* Pending events live in one of two lanes.

   - The heap holds events after the current instant: a binary min-heap on
     (time, seq) over parallel arrays, times unboxed in a [Float.Array.t].
     A heap entry names a slot; the event's closure sits in [s_run] at
     that slot, written once at push and cleared once at pop, so sifting
     moves only floats and ints and never takes the write barrier.  The
     free slots are parked in [h_slot]'s unused tail, [h_len, capacity):
     push takes the one at [h_len], pop parks the freed one there.
   - The ring holds events at exactly the current instant, in scheduling
     order: every wake, every spawn at now and every zero-length hold.

   A heap event at [time = clock] was scheduled before the clock reached
   that instant, so its seq is below that of every ring entry; popping the
   heap while its top is at [clock], and the ring otherwise, is therefore
   exactly (time, seq) order.

   Under profiling each event also carries its owner: the counters of
   the process (by spawn name) whose execution scheduled it, looked up
   once when that process is spawned.  Continuations keep their process's
   owner, plain [schedule] callbacks and anonymous spawns inherit the
   scheduler's.  The owner arrays ([s_owner], [r_owner]) are only
   allocated or written, and [current] only changes, when profiling is
   on.  A pop leaves the owner slot as it is: every owner record lives
   in [pstats] anyway. *)
type t = {
  mutable h_time : Float.Array.t;
  mutable h_seq : int array;
  mutable h_slot : int array;  (* heap position -> slot; free slots after h_len *)
  mutable s_run : (unit -> unit) array;  (* slot -> event *)
  mutable s_owner : pstat array;  (* slot -> owner; [||] unless profiling *)
  mutable h_len : int;
  mutable r_owner : pstat array;  (* [||] unless profiling *)
  mutable r_run : (unit -> unit) array;
  mutable r_head : int;
  mutable r_len : int;  (* ring capacity is a power of two *)
  mutable clock : float;
      (* boxed and written only when time advances, so [now] never
         allocates *)
  mutable seq : int;
  mutable executed : int;
  mutable spawned : int;
  mutable stopping : bool;
  mutable holds : int;
  mutable wakes : int;
  mutable heap_hwm : int;  (* pending events in both lanes *)
  mutable live : int;  (* processes started and not yet finished *)
  mutable live_hwm : int;
  mutable profiling : bool;
  mutable current : pstat;  (* owner of the event being executed *)
  anonymous : pstat;  (* [current] outside any named process *)
  pstats : (string, pstat) Hashtbl.t;
  hold_d : Float.Array.t;
      (* one element: the duration of the [Hold] being handled, passed
         from [effc] to the engine's one preallocated hold handler *)
  mutable handler : (unit, unit) handler;
}

let nop () = ()

let now t = t.clock
let events_executed t = t.executed
let processes_spawned t = t.spawned
let live_processes t = t.live

let enable_profiling t =
  if t.h_len + t.r_len > 0 then
    invalid_arg "Engine.enable_profiling: events already pending";
  t.profiling <- true;
  t.s_owner <- Array.make (Array.length t.s_run) t.anonymous;
  t.r_owner <- Array.make (Array.length t.r_run) t.anonymous

let new_pstat name =
  { p_name = name; p_runs = 0; p_holds = 0; p_hold_time = 0.0 }

let pstat t name =
  match Hashtbl.find_opt t.pstats name with
  | Some p -> p
  | None ->
      let p = new_pstat name in
      Hashtbl.add t.pstats name p;
      p

(* Records are made at spawn, so a process that never ran has one with
   zero counters: left out. *)
let profile t =
  let per =
    Hashtbl.fold
      (fun _ p acc ->
        if p.p_runs = 0 && p.p_holds = 0 then acc
        else
          {
            pp_name = (if p.p_name = "" then "(anonymous)" else p.p_name);
            pp_runs = p.p_runs;
            pp_holds = p.p_holds;
            pp_hold_time = p.p_hold_time;
          }
          :: acc)
      t.pstats []
    |> List.sort (fun a b ->
           let c = Int.compare b.pp_runs a.pp_runs in
           if c <> 0 then c else String.compare a.pp_name b.pp_name)
  in
  {
    pr_events = t.executed;
    pr_spawned = t.spawned;
    pr_holds = t.holds;
    pr_wakes = t.wakes;
    pr_heap_hwm = t.heap_hwm;
    pr_live_hwm = t.live_hwm;
    pr_per_process = per;
  }

(* ---- future lane: the heap ---- *)

let[@inline] before (t1 : float) (s1 : int) t2 s2 =
  t1 < t2 || (t1 = t2 && s1 < s2)

let extend a ncap fill =
  let b = Array.make ncap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Called only when full, so every slot below the old capacity is in use
   and the new ones are the free tail. *)
let grow_heap t =
  let cap = Array.length t.h_seq in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let time = Float.Array.create ncap in
  Float.Array.blit t.h_time 0 time 0 cap;
  t.h_time <- time;
  t.h_seq <- extend t.h_seq ncap 0;
  t.h_slot <- Array.init ncap (fun i -> if i < cap then t.h_slot.(i) else i);
  t.s_run <- extend t.s_run ncap nop;
  if t.profiling then t.s_owner <- extend t.s_owner ncap t.anonymous

(* Takes the free slot parked at the end, opens a hole there, moves it up
   until (time, seq) fits, then fills it. *)
let heap_push t time seq owner run =
  if t.h_len = Array.length t.h_seq then grow_heap t;
  let ht = t.h_time and hs = t.h_seq and hl = t.h_slot in
  let i = ref t.h_len in
  let slot = Array.unsafe_get hl !i in
  Array.unsafe_set t.s_run slot run;
  if t.profiling then Array.unsafe_set t.s_owner slot owner;
  t.h_len <- t.h_len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if before time seq (Float.Array.unsafe_get ht p) (Array.unsafe_get hs p)
    then begin
      Float.Array.unsafe_set ht !i (Float.Array.unsafe_get ht p);
      Array.unsafe_set hs !i (Array.unsafe_get hs p);
      Array.unsafe_set hl !i (Array.unsafe_get hl p);
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hl !i slot

(* Removes the top and returns its event.  Its slot is cleared, so it does
   not keep a finished process reachable; the last entry drops into the
   hole at the root and sinks to its place, and the freed slot is parked
   at the new end. *)
let heap_pop t =
  let ht = t.h_time and hs = t.h_seq and hl = t.h_slot in
  let freed = Array.unsafe_get hl 0 in
  let run = Array.unsafe_get t.s_run freed in
  Array.unsafe_set t.s_run freed nop;
  if t.profiling then t.current <- Array.unsafe_get t.s_owner freed;
  let n = t.h_len - 1 in
  t.h_len <- n;
  if n > 0 then begin
    let time = Float.Array.unsafe_get ht n
    and seq = Array.unsafe_get hs n
    and slot = Array.unsafe_get hl n in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && before (Float.Array.unsafe_get ht r) (Array.unsafe_get hs r)
                 (Float.Array.unsafe_get ht l) (Array.unsafe_get hs l)
          then r
          else l
        in
        if before (Float.Array.unsafe_get ht c) (Array.unsafe_get hs c) time seq
        then begin
          Float.Array.unsafe_set ht !i (Float.Array.unsafe_get ht c);
          Array.unsafe_set hs !i (Array.unsafe_get hs c);
          Array.unsafe_set hl !i (Array.unsafe_get hl c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set ht !i time;
    Array.unsafe_set hs !i seq;
    Array.unsafe_set hl !i slot
  end;
  Array.unsafe_set hl n freed;
  run

(* ---- same-instant lane: the ring ---- *)

let ring_push t owner run =
  let cap = Array.length t.r_run in
  if t.r_len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let unroll a fill =
      Array.init ncap (fun k ->
          if k < t.r_len then a.((t.r_head + k) land (cap - 1)) else fill)
    in
    if t.profiling then t.r_owner <- unroll t.r_owner t.anonymous;
    t.r_run <- unroll t.r_run nop;
    t.r_head <- 0
  end;
  let k = (t.r_head + t.r_len) land (Array.length t.r_run - 1) in
  if t.profiling then Array.unsafe_set t.r_owner k owner;
  Array.unsafe_set t.r_run k run;
  t.r_len <- t.r_len + 1

(* Removes the ring's head and returns its event, clearing its slot. *)
let ring_pop t =
  let k = t.r_head in
  let run = Array.unsafe_get t.r_run k in
  Array.unsafe_set t.r_run k nop;
  if t.profiling then t.current <- Array.unsafe_get t.r_owner k;
  t.r_head <- (k + 1) land (Array.length t.r_run - 1);
  t.r_len <- t.r_len - 1;
  run

(* Moves the ring into the heap at the current instant, in FIFO order and
   behind every heap event at that instant — where (time, seq) order puts
   them.  Needed only when [run ~until] moves the clock back. *)
let spill_ring t =
  while t.r_len > 0 do
    let run = ring_pop t in
    t.seq <- t.seq + 1;
    heap_push t t.clock t.seq t.current run
  done

let schedule_owned t ~owner ~at fn =
  if not (at >= t.clock) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: at is NaN"
       else Printf.sprintf "Engine.schedule: at=%g is before now=%g" at t.clock);
  if at = t.clock then ring_push t owner fn
  else begin
    t.seq <- t.seq + 1;
    heap_push t at t.seq owner fn
  end;
  let s = t.h_len + t.r_len in
  if s > t.heap_hwm then t.heap_hwm <- s

let schedule t ~at fn = schedule_owned t ~owner:t.current ~at fn

let resumer t fn =
  let owner = t.current in
  fun () -> schedule_owned t ~owner ~at:t.clock fn

(* The handler is deep, so it stays installed across every resumption of a
   process: [Hold] reschedules the continuation later in time and [Suspend]
   hands a one-shot resumer to user code (mailboxes, facilities, ...).
   Both effects are handled synchronously during the process's event, so
   [t.current] is the performing process and names its continuations; the
   handler needs nothing else from the process, so one serves them all.
   [Hold]'s handler is allocated once: [effc] passes it the duration
   through [t.hold_d], which is safe because the runtime calls the handler
   before anything else runs on this engine's domain. *)
let make_handler t =
  let hold (k : (unit, unit) continuation) =
    let d = Float.Array.unsafe_get t.hold_d 0 in
    if not (d >= 0.0) then
      discontinue k
        (Invalid_argument
           (if Float.is_nan d then "Engine.hold: NaN" else "Engine.hold: negative"))
    else begin
      t.holds <- t.holds + 1;
      if t.profiling then begin
        let p = t.current in
        p.p_holds <- p.p_holds + 1;
        p.p_hold_time <- p.p_hold_time +. d
      end;
      schedule t ~at:(t.clock +. d) (fun () -> continue k ())
    end
  in
  let on_hold = Some hold in
  {
    retc = (fun () -> t.live <- t.live - 1);
    exnc = (function Process_exit -> t.live <- t.live - 1 | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Hold d ->
            Float.Array.unsafe_set t.hold_d 0 d;
            on_hold
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let me = t.current in
                let resume () =
                  if !resumed then invalid_arg "Engine: process resumed twice";
                  resumed := true;
                  t.wakes <- t.wakes + 1;
                  schedule_owned t ~owner:me ~at:t.clock (fun () ->
                      continue k ())
                in
                register resume)
        | _ -> None);
  }

let create () =
  let anonymous = new_pstat "" in
  let pstats = Hashtbl.create 32 in
  Hashtbl.add pstats "" anonymous;
  let t =
    {
      h_time = Float.Array.create 0;
      h_seq = [||];
      h_slot = [||];
      s_run = [||];
      s_owner = [||];
      h_len = 0;
      r_owner = [||];
      r_run = [||];
      r_head = 0;
      r_len = 0;
      clock = 0.0;
      seq = 0;
      executed = 0;
      spawned = 0;
      stopping = false;
      holds = 0;
      wakes = 0;
      heap_hwm = 0;
      live = 0;
      live_hwm = 0;
      profiling = false;
      current = anonymous;
      anonymous;
      pstats;
      hold_d = Float.Array.make 1 0.0;
      handler = { retc = Fun.id; exnc = raise; effc = (fun _ -> None) };
    }
  in
  t.handler <- make_handler t;
  t

let spawn t ?at ?name body =
  let at = match at with Some a -> a | None -> t.clock in
  t.spawned <- t.spawned + 1;
  let owner =
    match name with Some n when t.profiling -> pstat t n | _ -> t.current
  in
  schedule_owned t ~owner ~at (fun () ->
      t.live <- t.live + 1;
      if t.live > t.live_hwm then t.live_hwm <- t.live;
      match_with body () t.handler)

(* [t.current] was set by the pop when profiling. *)
let[@inline] execute t run =
  t.executed <- t.executed + 1;
  if t.profiling then begin
    let p = t.current in
    p.p_runs <- p.p_runs + 1
  end;
  run ()

(* The next event is at [clock] but past [limit] only when [until] lies
   behind the clock: the clock moves back and the ring, no longer at the
   current instant, joins the heap. *)
let stop_at t limit =
  spill_ring t;
  t.clock <- limit

let run t ?until () =
  let limit = match until with Some l -> l | None -> Float.infinity in
  t.stopping <- false;
  let rec loop () =
    if t.stopping then ()
    else if
      t.h_len > 0
      && (t.r_len = 0 || Float.Array.unsafe_get t.h_time 0 = t.clock)
    then begin
      let time = Float.Array.unsafe_get t.h_time 0 in
      if time > limit then stop_at t limit
      else begin
        let run = heap_pop t in
        if time <> t.clock then t.clock <- time;
        execute t run;
        loop ()
      end
    end
    else if t.r_len > 0 then begin
      if t.clock > limit then stop_at t limit
      else begin
        execute t (ring_pop t);
        loop ()
      end
    end
  in
  loop ();
  t.current <- t.anonymous;
  t.clock

let stop t = t.stopping <- true
let hold d = perform (Hold d)
let suspend register = perform (Suspend register)
let exit_process () = raise Process_exit
