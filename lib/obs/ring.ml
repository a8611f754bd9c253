(* A bounded append-only log, shared by every observability channel.

   Storage is a growable array of fixed-size chunks: a push writes one
   cell and allocates a fresh chunk only every [chunk_size] pushes, so
   recording never copies what is already held.  Once [limit] values have
   been pushed the log wraps and overwrites the oldest ring-style — for a
   failing run the tail is the interesting part.  Position [seq mod
   limit] holds push number [seq], so the write counter alone locates the
   oldest live value. *)

let chunk_size = 4096

type 'a t = {
  limit : int;
  mutable chunks : 'a array array;  (* chunk pointers, grown by doubling *)
  mutable written : int;  (* total pushes ever *)
}

let default_limit = 2_000_000

let create ?(limit = default_limit) () =
  if limit < 1 then invalid_arg "Obs.Ring.create: limit < 1";
  { limit; chunks = [||]; written = 0 }

let written t = t.written
let length t = min t.written t.limit
let dropped t = max 0 (t.written - t.limit)

let push t x =
  let pos = t.written mod t.limit in
  let ci = pos / chunk_size and co = pos mod chunk_size in
  if ci >= Array.length t.chunks then begin
    let chunks = Array.make (max 4 (2 * Array.length t.chunks)) [||] in
    Array.blit t.chunks 0 chunks 0 (Array.length t.chunks);
    t.chunks <- chunks
  end;
  (* a fresh chunk is filled with its first value: no dummy element *)
  if Array.length t.chunks.(ci) = 0 then
    t.chunks.(ci) <- Array.make chunk_size x
  else t.chunks.(ci).(co) <- x;
  t.written <- t.written + 1

let to_array t =
  let first = dropped t in
  Array.init (length t) (fun i ->
      let pos = (first + i) mod t.limit in
      t.chunks.(pos / chunk_size).(pos mod chunk_size))
