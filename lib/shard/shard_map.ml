type t = {
  db : Db.Database.t;
  n_shards : int;
  class_shard : int array;
}

let create db ~n_shards =
  if n_shards < 1 then invalid_arg "Shard_map.create: n_shards < 1";
  let n_classes = Db.Database.n_classes db in
  let class_shard = Array.make n_classes 0 in
  (* contiguous class ranges: shard [k] owns classes
     [k*C/N, (k+1)*C/N).  With N > C the trailing shards own nothing. *)
  for k = 0 to n_shards - 1 do
    for cls = k * n_classes / n_shards to ((k + 1) * n_classes / n_shards) - 1
    do
      class_shard.(cls) <- k
    done
  done;
  { db; n_shards; class_shard }

let n_shards t = t.n_shards
let shard_of_page t page = t.class_shard.(Db.Database.class_of_page t.db page)

let partition_pages t pages =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let s = shard_of_page t p in
      Hashtbl.replace tbl s
        (p :: Option.value (Hashtbl.find_opt tbl s) ~default:[]))
    pages;
  Hashtbl.fold (fun s ps acc -> (s, List.rev ps) :: acc) tbl []
  |> List.sort compare
