type t = {
  eng : Engine.t;
  fname : string;
  cap : int;
  mutable busy : int;
  waiting : (unit -> unit) Queue.t;
  mutable busy_area : float;
  mutable queue_area : float;
  mutable max_q : int;
  mutable last_stat : float;
  mutable window_start : float;
  mutable done_count : int;
  mutable service_total : float;
}

let create eng ~name ?(capacity = 1) () =
  if capacity < 1 then invalid_arg "Facility.create: capacity < 1";
  {
    eng;
    fname = name;
    cap = capacity;
    busy = 0;
    waiting = Queue.create ();
    busy_area = 0.0;
    queue_area = 0.0;
    max_q = 0;
    last_stat = Engine.now eng;
    window_start = Engine.now eng;
    done_count = 0;
    service_total = 0.0;
  }

let name f = f.fname
let capacity f = f.cap

let account f =
  let t = Engine.now f.eng in
  let dt = t -. f.last_stat in
  if dt > 0.0 then begin
    f.busy_area <- f.busy_area +. (float_of_int f.busy *. dt);
    f.queue_area <- f.queue_area +. (float_of_int (Queue.length f.waiting) *. dt)
  end;
  f.last_stat <- t

let request f =
  account f;
  if f.busy < f.cap then f.busy <- f.busy + 1
  else
    Engine.suspend (fun resume ->
        Queue.add resume f.waiting;
        let q = Queue.length f.waiting in
        if q > f.max_q then f.max_q <- q)

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

let use f dt =
  request f;
  Engine.hold dt;
  f.done_count <- f.done_count + 1;
  f.service_total <- f.service_total +. dt;
  release f

let elapsed f = Engine.now f.eng -. f.window_start

let utilization f =
  account f;
  let e = elapsed f in
  if e <= 0.0 then 0.0 else f.busy_area /. (e *. float_of_int f.cap)

let mean_queue_length f =
  account f;
  let e = elapsed f in
  if e <= 0.0 then 0.0 else f.queue_area /. e

let max_queue_length f = f.max_q

let busy_time f =
  account f;
  f.busy_area

let completions f = f.done_count
let total_service_time f = f.service_total

let reset_stats f =
  f.busy_area <- 0.0;
  f.queue_area <- 0.0;
  f.max_q <- Queue.length f.waiting;
  f.last_stat <- Engine.now f.eng;
  f.window_start <- Engine.now f.eng;
  f.done_count <- 0;
  f.service_total <- 0.0
