(* An online metrics registry: log-bucketed histograms with O(1) record
   and exact merge, plus counters and gauges, exported as OpenMetrics
   text.

   Histogram buckets are integer counts, so merging is element-wise
   integer addition — exactly associative and commutative, which is what
   makes per-replication registries recorded in different domains
   mergeable into one deterministic artifact regardless of [-j].

   A registry installed in the {!Sink} around [Sim.Engine.run] collects
   that run's samples and returns by value inside the run's payload. *)

(* ------------------------------------------------------------------ *)
(* Log-bucketed histogram                                              *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  (* [sub] sub-buckets per octave gives a relative bucket width of
     2^(1/sub) - 1 ≈ 4.4%.  Octaves cover 2^-41 .. 2^41 (~5e-13 s to
     ~2e12 s when values are seconds); bucket 0 holds zero/negative and
     underflow, the last bucket holds overflow. *)
  let sub = 16
  let min_exp = -40 (* smallest frexp exponent with its own octave *)
  let max_exp = 41
  let n_octaves = max_exp - min_exp + 1
  let n_buckets = (n_octaves * sub) + 2

  type t = { counts : int array; mutable total : int; mutable sum : float }

  let create () = { counts = Array.make n_buckets 0; total = 0; sum = 0.0 }

  let bucket_of v =
    if not (v > 0.0) then 0
    else begin
      let m, e = Float.frexp v in
      (* m in [0.5, 1) *)
      if e < min_exp then 0
      else if e > max_exp then n_buckets - 1
      else
        let s = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub) in
        let s = if s >= sub then sub - 1 else if s < 0 then 0 else s in
        (((e - min_exp) * sub) + s) + 1
    end

  (* [lower, upper) value range of a bucket; bucket 0 is (-inf, 2^(min_exp-1)),
     the overflow bucket is [2^max_exp, inf). *)
  let bucket_bounds i =
    if i <= 0 then (neg_infinity, Float.ldexp 1.0 (min_exp - 1))
    else if i >= n_buckets - 1 then (Float.ldexp 1.0 max_exp, infinity)
    else
      let o = ((i - 1) / sub) + min_exp and s = (i - 1) mod sub in
      ( Float.ldexp (0.5 +. (float_of_int s /. float_of_int (2 * sub))) o,
        Float.ldexp (0.5 +. (float_of_int (s + 1) /. float_of_int (2 * sub))) o
      )

  let record t v =
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v

  let count t = t.total
  let sum t = t.sum

  (* Nearest-rank quantile estimate: the upper bound of the bucket that
     holds the rank-⌈q·n⌉ observation.  The true observation lies inside
     that bucket, so the absolute error is at most one bucket width. *)
  let quantile t q =
    if t.total = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
      let rec walk i cum =
        if i >= n_buckets then fst (bucket_bounds (n_buckets - 1))
        else
          let cum = cum + t.counts.(i) in
          if cum >= rank then
            if i = 0 then 0.0
            else if i = n_buckets - 1 then fst (bucket_bounds i)
            else snd (bucket_bounds i)
          else walk (i + 1) cum
      in
      walk 0 0
    end

  (* Exact on bucket counts; [sum] is float addition in argument order
     (deterministic for a fixed merge order, e.g. seed order). *)
  let merge a b =
    let t = create () in
    for i = 0 to n_buckets - 1 do
      t.counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    t.total <- a.total + b.total;
    t.sum <- a.sum +. b.sum;
    t

  (* Structural equality of the integer state (counts); [sum] is excluded
     because float addition is not associative. *)
  let equal a b = a.total = b.total && a.counts = b.counts

  let copy t = { counts = Array.copy t.counts; total = t.total; sum = t.sum }
  let counts t = t.counts
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type value = Counter of int | Gauge of float | Histogram of Hist.t
type t = { tbl : (string, value) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let incr t name n =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> Hashtbl.replace t.tbl name (Counter (c + n))
  | Some _ -> invalid_arg ("Obs.Metrics.incr: " ^ name ^ " is not a counter")
  | None -> Hashtbl.replace t.tbl name (Counter n)

let set_gauge t name v =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge _) | None -> Hashtbl.replace t.tbl name (Gauge v)
  | Some _ -> invalid_arg ("Obs.Metrics.set_gauge: " ^ name ^ " is not a gauge")

let observe t name v =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> Hist.record h v
  | Some _ -> invalid_arg ("Obs.Metrics.observe: " ^ name ^ " is not a histogram")
  | None ->
      let h = Hist.create () in
      Hist.record h v;
      Hashtbl.replace t.tbl name (Histogram h)

let find t name = Hashtbl.find_opt t.tbl name

let counter_value t name =
  match find t name with Some (Counter c) -> Some c | _ -> None

let gauge_value t name =
  match find t name with Some (Gauge g) -> Some g | _ -> None

let histogram t name =
  match find t name with Some (Histogram h) -> Some h | _ -> None

(* Sorted by series name: the export (and anything folding over the
   registry) is a pure function of the recorded samples. *)
let sorted t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let is_empty t = Hashtbl.length t.tbl = 0

(* Counters and histogram buckets add; gauges take the maximum (they are
   per-replication end-of-run levels, and max is associative/commutative
   so merged artifacts stay order-independent). *)
let merge_into dst src =
  Hashtbl.iter
    (fun name v ->
      match (Hashtbl.find_opt dst.tbl name, v) with
      | None, Counter c -> Hashtbl.replace dst.tbl name (Counter c)
      | None, Gauge g -> Hashtbl.replace dst.tbl name (Gauge g)
      | None, Histogram h -> Hashtbl.replace dst.tbl name (Histogram (Hist.copy h))
      | Some (Counter a), Counter b -> Hashtbl.replace dst.tbl name (Counter (a + b))
      | Some (Gauge a), Gauge b -> Hashtbl.replace dst.tbl name (Gauge (Float.max a b))
      | Some (Histogram a), Histogram b ->
          Hashtbl.replace dst.tbl name (Histogram (Hist.merge a b))
      | Some _, _ ->
          invalid_arg ("Obs.Metrics.merge: type mismatch for " ^ name))
    src.tbl

let merge ts =
  let t = create () in
  List.iter (merge_into t) ts;
  t

let equal a b =
  let ka = sorted a and kb = sorted b in
  List.length ka = List.length kb
  && List.for_all2
       (fun (na, va) (nb, vb) ->
         na = nb
         &&
         match (va, vb) with
         | Counter x, Counter y -> x = y
         | Gauge x, Gauge y -> x = y
         | Histogram x, Histogram y -> Hist.equal x y
         | _ -> false)
       ka kb

(* ------------------------------------------------------------------ *)
(* OpenMetrics text exposition                                         *)
(* ------------------------------------------------------------------ *)

(* Series names may carry labels inline: "ccsim_aborts_total{cause=\"x\"}".
   The family (text before '{') gets one TYPE line; histogram families
   expand into _bucket/_count/_sum series with cumulative [le] labels
   (empty buckets elided, "+Inf" always present). *)
let family_of name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let labels_of name =
  match String.index_opt name '{' with
  | Some i -> String.sub name i (String.length name - i)
  | None -> ""

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let add_label labels extra =
  if labels = "" then "{" ^ extra ^ "}"
  else String.sub labels 0 (String.length labels - 1) ^ "," ^ extra ^ "}"

let to_openmetrics t =
  let buf = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  let type_line fam kind =
    if not (Hashtbl.mem typed fam) then begin
      Hashtbl.replace typed fam ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind)
    end
  in
  List.iter
    (fun (name, v) ->
      let fam = family_of name and labels = labels_of name in
      match v with
      | Counter c ->
          type_line fam "counter";
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" fam labels c)
      | Gauge g ->
          type_line fam "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" fam labels (fmt_float g))
      | Histogram h ->
          type_line fam "histogram";
          let cum = ref 0 in
          for i = 0 to Hist.n_buckets - 1 do
            if h.Hist.counts.(i) > 0 then begin
              cum := !cum + h.Hist.counts.(i);
              let le =
                if i = Hist.n_buckets - 1 then "+Inf"
                else fmt_float (snd (Hist.bucket_bounds i))
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" fam
                   (add_label labels (Printf.sprintf "le=%S" le))
                   !cum)
            end
          done;
          if h.Hist.counts.(Hist.n_buckets - 1) = 0 then
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" fam
                 (add_label labels "le=\"+Inf\"")
                 !cum);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" fam labels (Hist.count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" fam labels (fmt_float (Hist.sum h))))
    (sorted t);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
