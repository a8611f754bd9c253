(* The root BENCHMARK.json: workload names, metric units, directions and
   bounds.  The bounds live only there; --compare and --smoke read them
   back. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let fail fmt = Printf.ksprintf failwith fmt

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json =
    match Obs.Export.parse_json text with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
  in
  let field k j =
    match Obs.Export.member k j with
    | Some v -> v
    | None -> fail "%s: missing %S" path k
  in
  let str k j =
    match field k j with Obs.Export.Str s -> s | _ -> fail "%s: %S is not a string" path k
  in
  let num k j =
    match field k j with Obs.Export.Num x -> x | _ -> fail "%s: %S is not a number" path k
  in
  let arr k j =
    match field k j with Obs.Export.Arr l -> l | _ -> fail "%s: %S is not a list" path k
  in
  let metric ~bounded j =
    {
      name = str "name" j;
      unit_ = str "unit" j;
      higher_is_better =
        (match str "better" j with
        | "higher" -> true
        | "lower" -> false
        | b -> fail "%s: better = %S" path b);
      bound = (if bounded then Some (num "bound" j) else None);
    }
  in
  {
    workloads = List.map (str "name") (arr "workloads" json);
    end_to_end = List.map (metric ~bounded:true) (arr "end_to_end" json);
    per_layer = List.map (metric ~bounded:false) (arr "per_layer" json);
  }
