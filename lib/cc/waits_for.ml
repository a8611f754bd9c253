type t = { edges : (int, int list ref) Hashtbl.t }

let create () = { edges = Hashtbl.create 64 }

let add_edge t a b =
  if a <> b then begin
    let l =
      match Hashtbl.find_opt t.edges a with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace t.edges a l;
          l
    in
    if not (List.mem b !l) then l := b :: !l
  end

let succ t a =
  match Hashtbl.find_opt t.edges a with Some l -> !l | None -> []

let find_cycle_from t start =
  (* DFS from [start]; report the path when we step back onto [start]. *)
  let visited = Hashtbl.create 32 in
  let rec dfs node path =
    let continue_with next =
      if next = start then Some (List.rev path)
      else if Hashtbl.mem visited next then None
      else begin
        Hashtbl.replace visited next ();
        dfs next (next :: path)
      end
    in
    List.fold_left
      (fun acc next -> match acc with Some _ -> acc | None -> continue_with next)
      None (succ t node)
  in
  Hashtbl.replace visited start ();
  dfs start [ start ]

let add_lock_table g table =
  List.iter
    (fun owner ->
      List.iter
        (fun page ->
          List.iter
            (fun blocker -> add_edge g owner blocker)
            (Lock_table.blockers table ~page owner))
        (Lock_table.waits_of table owner))
    (Lock_table.waiting_owners table)

let pick_victim ~start_time = function
  | [] -> invalid_arg "Waits_for.pick_victim: empty cycle"
  | first :: rest ->
      List.fold_left
        (fun best cand ->
          let bt = start_time best and ct = start_time cand in
          if ct > bt || (ct = bt && cand > best) then cand else best)
        first rest
