type ('k, 'v) t = { initial : int; mutable tbl : ('k, 'v) Hashtbl.t option }

let create initial = { initial; tbl = None }

let replace t k v =
  match t.tbl with
  | Some h -> Hashtbl.replace h k v
  | None ->
      let h = Hashtbl.create t.initial in
      t.tbl <- Some h;
      Hashtbl.replace h k v

let find_opt t k =
  match t.tbl with Some h -> Hashtbl.find_opt h k | None -> None

let mem t k = match t.tbl with Some h -> Hashtbl.mem h k | None -> false
let remove t k = match t.tbl with Some h -> Hashtbl.remove h k | None -> ()
let length t = match t.tbl with Some h -> Hashtbl.length h | None -> 0
let iter f t = match t.tbl with Some h -> Hashtbl.iter f h | None -> ()
let fold f t acc = match t.tbl with Some h -> Hashtbl.fold f h acc | None -> acc
let reset t = match t.tbl with Some h -> Hashtbl.reset h | None -> ()
