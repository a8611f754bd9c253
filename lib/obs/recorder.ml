(* The protocol-event channel: typed events keyed by [(sim_time, seq)]
   in a {!Ring}.  Recording costs one entry allocation per event on top
   of the event value itself. *)

type entry = { time : float; seq : int; ev : Event.t }
type t = entry Ring.t

let create = Ring.create
let length = Ring.length
let dropped = Ring.dropped
let add t ~time ev = Ring.push t { time; seq = Ring.written t; ev }
let entries = Ring.to_array
