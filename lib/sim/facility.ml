(* The window's statistics, all floats so the record is flat and an
   update stores an unboxed float instead of allocating a box. *)
type stats = {
  mutable busy_area : float;
  mutable queue_area : float;
  mutable last_stat : float;
  mutable window_start : float;
  mutable service_total : float;
}

type t = {
  eng : Engine.t;
  fname : string;
  cap : int;
  mutable busy : int;
  waiting : (unit -> unit) Queue.t;
  st : stats;
  mutable max_q : int;
  mutable done_count : int;
}

let create eng ~name ?(capacity = 1) () =
  if capacity < 1 then invalid_arg "Facility.create: capacity < 1";
  let now = Engine.now eng in
  {
    eng;
    fname = name;
    cap = capacity;
    busy = 0;
    waiting = Queue.create ();
    st =
      {
        busy_area = 0.0;
        queue_area = 0.0;
        last_stat = now;
        window_start = now;
        service_total = 0.0;
      };
    max_q = 0;
    done_count = 0;
  }

let name f = f.fname
let capacity f = f.cap

let account f =
  let s = f.st in
  let t = Engine.now f.eng in
  let dt = t -. s.last_stat in
  if dt > 0.0 then begin
    s.busy_area <- s.busy_area +. (float_of_int f.busy *. dt);
    s.queue_area <- s.queue_area +. (float_of_int (Queue.length f.waiting) *. dt)
  end;
  s.last_stat <- t

let enqueue f resume =
  Queue.add resume f.waiting;
  let q = Queue.length f.waiting in
  if q > f.max_q then f.max_q <- q

let request f =
  account f;
  if f.busy < f.cap then f.busy <- f.busy + 1
  else Engine.suspend (enqueue f)

let release f =
  account f;
  match Queue.take_opt f.waiting with
  | Some resume ->
      (* The freed unit passes straight to the head of the queue, so [busy]
         is unchanged — this keeps utilization accounting exact. *)
      resume ()
  | None ->
      if f.busy <= 0 then invalid_arg "Facility.release: not in use";
      f.busy <- f.busy - 1

let complete f dt =
  f.done_count <- f.done_count + 1;
  f.st.service_total <- f.st.service_total +. dt;
  release f

let use f dt =
  request f;
  Engine.hold dt;
  complete f dt

(* [use] as a chain of events: the completion takes the hold's slot, and a
   queued request's start takes the slot of the waiting process's wake. *)
let submit f ~service k =
  if not (service >= 0.0) then invalid_arg "Facility.submit: bad service time";
  let finish () =
    complete f service;
    k ()
  in
  account f;
  if f.busy < f.cap then begin
    f.busy <- f.busy + 1;
    Engine.schedule f.eng ~at:(Engine.now f.eng +. service) finish
  end
  else
    enqueue f
      (Engine.resumer f.eng (fun () ->
           Engine.schedule f.eng ~at:(Engine.now f.eng +. service) finish))

let elapsed f = Engine.now f.eng -. f.st.window_start

let utilization f =
  account f;
  let e = elapsed f in
  if e <= 0.0 then 0.0 else f.st.busy_area /. (e *. float_of_int f.cap)

let mean_queue_length f =
  account f;
  let e = elapsed f in
  if e <= 0.0 then 0.0 else f.st.queue_area /. e

let max_queue_length f = f.max_q

let busy_time f =
  account f;
  f.st.busy_area

let completions f = f.done_count
let total_service_time f = f.st.service_total

let reset_stats f =
  let s = f.st and now = Engine.now f.eng in
  s.busy_area <- 0.0;
  s.queue_area <- 0.0;
  s.last_stat <- now;
  s.window_start <- now;
  s.service_total <- 0.0;
  f.max_q <- Queue.length f.waiting;
  f.done_count <- 0
