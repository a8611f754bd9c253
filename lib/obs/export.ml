(* Artifact exporters: Chrome/Perfetto trace_event JSON for the merged
   trace, and CSV for sampled series.  Both formats are written by hand
   (no JSON/CSV dependency in the tree) and both come with a reader —
   [validate_json] checks the JSON we emit, [series_of_csv] round-trips
   the CSV — so the CI smoke job can verify artifacts without external
   tooling. *)

(* ------------------------------------------------------------------ *)
(* JSON building blocks                                                *)
(* ------------------------------------------------------------------ *)

(* Everything below writes into one [Buffer.t]: constant fragments as
   they are, ints through [add_int], times through the C formatter that
   [Printf]'s [%.3f] calls, and text through [add_json_string], which
   copies a string that needs no escaping in one piece. *)

external format_float : string -> float -> string = "caml_format_float"

let hex = "0123456789abcdef"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* The index of the first byte of [s] that needs escaping, or its length. *)
let rec first_escape s i =
  if i = String.length s || needs_escape (String.unsafe_get s i) then i
  else first_escape s (i + 1)

(* Appends [s] escaped, given that its bytes before [i] need none. *)
let add_escaped_from b s i =
  Buffer.add_substring b s 0 i;
  for j = i to String.length s - 1 do
    match String.unsafe_get s j with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex.[Char.code c lsr 4];
        Buffer.add_char b hex.[Char.code c land 15]
    | c -> Buffer.add_char b c
  done

let add_json_string b s = add_escaped_from b s (first_escape s 0)

let json_escape s =
  let i = first_escape s 0 in
  if i = String.length s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped_from b s i;
    Buffer.contents b
  end

(* The bytes of [string_of_int n] without its [snprintf] call and its
   string.  Negative ints do occur and take [string_of_int]'s path:
   every server-track span and every [Xact] or [Restart_wait] span is
   exported with ["xid":-1]. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n) else add_digits b n

(* ------------------------------------------------------------------ *)
(* Perfetto / Chrome trace_event format                                *)
(* ------------------------------------------------------------------ *)

(* One JSON object per trace entry, in the "i" (instant) phase, plus an
   "X" (complete) event per paired lock wait so Perfetto renders waits as
   bars.  pid = replication index, tid = client id + 1 (0 is the
   server/system track).  Timestamps are microseconds of simulated time,
   printed [%.3f]. *)

let add_us b t = Buffer.add_string b (format_float "%.3f" (t *. 1e6))

let tid_of ev = match Event.actor ev with Some c -> c + 1 | None -> 0

(* Span tracks share the client lanes (tid = client + 1); each shard's
   server gets its own lane well clear of any client id, so a sharded
   run renders as one timeline with a named lane per shard. *)
let shard_tid_base = 1_000_000

let span_tid = function
  | Span.Client c -> c + 1
  | Span.Server k -> shard_tid_base + k

let causal_tid = function
  | Causal.Client c -> c + 1
  | Causal.Shard k -> shard_tid_base + k

let perfetto ?(spans = [||]) ?(flows = [||])
    (entries : (int * Recorder.entry) array) =
  let b =
    Buffer.create
      (4096
      + (Array.length entries + Array.length spans + Array.length flows) * 96)
  in
  let str s = Buffer.add_string b s and int n = add_int b n in
  str "{\"traceEvents\":[";
  let first = ref true in
  (* starts the next record with [s] *)
  let obj s =
    if !first then first := false else Buffer.add_char b ',';
    str s
  in
  (* name the rep processes and client threads once per (pid, tid) *)
  let seen_pid = Hashtbl.create 8 and seen_tid = Hashtbl.create 64 in
  let metadata pid tid =
    if not (Hashtbl.mem seen_pid pid) then begin
      Hashtbl.add seen_pid pid ();
      obj "{\"ph\":\"M\",\"pid\":";
      int pid;
      str ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"rep ";
      int pid;
      str "\"}}"
    end;
    let key = (pid lsl 32) lor tid in
    if not (Hashtbl.mem seen_tid key) then begin
      Hashtbl.add seen_tid key ();
      obj "{\"ph\":\"M\",\"pid\":";
      int pid;
      str ",\"tid\":";
      int tid;
      str ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      if tid = 0 then str "server/system"
      else if tid >= shard_tid_base then begin
        str "shard ";
        int (tid - shard_tid_base)
      end
      else begin
        str "client ";
        int (tid - 1)
      end;
      str "\"}}"
    end
  in
  (* lock-wait pairing for duration events, per (rep, client, page) *)
  let waiting = Hashtbl.create 64 in
  Array.iter
    (fun (rep, { Recorder.time; ev; seq }) ->
      let tid = tid_of ev in
      metadata rep tid;
      obj "{\"name\":\"";
      add_json_string b (Event.kind ev);
      str "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      add_us b time;
      str ",\"pid\":";
      int rep;
      str ",\"tid\":";
      int tid;
      str ",\"args\":{\"seq\":";
      int seq;
      str ",\"detail\":\"";
      add_json_string b (Event.to_string ev);
      str "\"}}";
      match ev with
      | Event.Lock_wait { client; page; _ } ->
          Hashtbl.replace waiting (rep, client, page) time
      | Event.Lock_grant { client; page; mode } -> (
          match Hashtbl.find_opt waiting (rep, client, page) with
          | Some t0 ->
              Hashtbl.remove waiting (rep, client, page);
              obj "{\"name\":\"lock-wait p";
              int page;
              str " (";
              add_json_string b mode;
              str ")\",\"ph\":\"X\",\"ts\":";
              add_us b t0;
              str ",\"dur\":";
              add_us b (time -. t0);
              str ",\"pid\":";
              int rep;
              str ",\"tid\":";
              int (client + 1);
              str ",\"args\":{}}"
          | None -> ())
      | _ -> ())
    entries;
  (* span records become "X" (complete) duration events: one bar per
     Open/Close pair, on the opener's lane.  Spans still open at the end
     of the record are dropped (no duration to draw). *)
  let open_spans = Hashtbl.create 256 in
  Array.iter
    (fun (rep, { Span.sp_time; sp_ev; sp_seq = _ }) ->
      match sp_ev with
      | Span.Open { id; parent = _; track; kind; xid } ->
          Hashtbl.replace open_spans (rep, id) (sp_time, track, kind, xid)
      | Span.Close { id; ok } -> (
          match Hashtbl.find_opt open_spans (rep, id) with
          | None -> ()
          | Some (t0, track, kind, xid) ->
              Hashtbl.remove open_spans (rep, id);
              let tid = span_tid track in
              metadata rep tid;
              obj "{\"name\":\"";
              add_json_string b (Span.kind_name kind);
              str "\",\"ph\":\"X\",\"ts\":";
              add_us b t0;
              str ",\"dur\":";
              add_us b (sp_time -. t0);
              str ",\"pid\":";
              int rep;
              str ",\"tid\":";
              int tid;
              str ",\"args\":{\"xid\":";
              int xid;
              str (if ok then ",\"ok\":true}}" else ",\"ok\":false}}")))
    spans;
  (* causal messages become flow arrows: a "s" (flow start) event on the
     sender's lane at the send instant and a matching "f" (flow finish,
     binding to the enclosing slice) on the receiver's at delivery.  Only
     delivered copies draw an arrow — a drop has nowhere to land.  Flow
     ids are strings ("rep-node"), unique across reps by construction. *)
  let flow ph kind rep id t tid =
    obj "{\"name\":\"";
    add_json_string b kind;
    str ph;
    int rep;
    Buffer.add_char b '-';
    int id;
    str "\",\"ts\":";
    add_us b t;
    str ",\"pid\":";
    int rep;
    str ",\"tid\":";
    int tid;
    Buffer.add_char b '}'
  in
  let sends = Hashtbl.create 256 in
  Array.iter
    (fun (rep, { Causal.cz_time; cz_ev; cz_seq = _ }) ->
      match cz_ev with
      | Causal.Send { id; kind; src; dst; _ } ->
          Hashtbl.replace sends (rep, id) (cz_time, kind, src, dst)
      | Causal.Recv { id } -> (
          match Hashtbl.find_opt sends (rep, id) with
          | None -> ()
          | Some (t0, kind, src, dst) ->
              Hashtbl.remove sends (rep, id);
              let src_tid = causal_tid src and dst_tid = causal_tid dst in
              metadata rep src_tid;
              metadata rep dst_tid;
              flow "\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":\"" kind rep id
                t0 src_tid;
              flow "\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\""
                kind rep id cz_time dst_tid)
      | Causal.Root _ | Causal.Drop _ | Causal.End _ -> ())
    flows;
  str "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Series CSV                                                          *)
(* ------------------------------------------------------------------ *)

(* Floats are printed with %.17g so parsing them back yields the exact
   same double — the round-trip the CI smoke job checks. *)

let series_csv s =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# interval=%.17g start=%.17g\n" (Series.interval s)
       (Series.start s));
  Buffer.add_string b "time";
  Array.iter
    (fun n ->
      Buffer.add_char b ',';
      Buffer.add_string b n)
    (Series.names s);
  Buffer.add_char b '\n';
  let times = Series.times s in
  Array.iteri
    (fun i row ->
      Buffer.add_string b (Printf.sprintf "%.17g" times.(i));
      Array.iter (fun v -> Buffer.add_string b (Printf.sprintf ",%.17g" v)) row;
      Buffer.add_char b '\n')
    (Series.rows s);
  Buffer.contents b

let series_of_csv text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  match lines with
  | meta :: header :: rows ->
      let interval, start =
        try
          Scanf.sscanf meta "# interval=%g start=%g" (fun a b -> (a, b))
        with _ -> failwith "series_of_csv: bad metadata line"
      in
      let names =
        match String.split_on_char ',' header with
        | "time" :: ns -> Array.of_list ns
        | _ -> failwith "series_of_csv: bad header"
      in
      let s = Series.create ~interval ~start ~names in
      List.iter
        (fun line ->
          match String.split_on_char ',' line with
          | _time :: vals ->
              let row =
                Array.of_list (List.map float_of_string vals)
              in
              Series.record s row
          | [] -> ())
        rows;
      s
  | _ -> failwith "series_of_csv: too few lines"

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser                                                 *)
(* ------------------------------------------------------------------ *)

(* A recursive-descent scanner for RFC 8259 JSON with two uses.  With
   [build] it returns the value, so the benchmark (perfbench/) can read
   its own result lines back without any external JSON dependency;
   without, it checks the same grammar for [validate_json] and allocates
   nothing per byte or per value: no strings, numbers or lists.  Both
   modes raise the same errors at the same positions.  [peek] returns
   ['\000'] at the end, which is as invalid as a NUL outside a string;
   inside one, the end is tested explicitly, so an unterminated string
   and a control character stay distinct. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string * int

type scanner = { text : string; n : int; mutable pos : int; build : bool }

let fail st msg = raise (Bad (msg, st.pos))

let[@inline] peek st =
  if st.pos < st.n then String.unsafe_get st.text st.pos else '\000'

let[@inline] advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | ' ' | '\t' | '\n' | '\r' ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  if peek st = c then advance st else fail st (Printf.sprintf "expected %c" c)

(* decode a code point to UTF-8 bytes (enough for \u escapes; surrogate
   pairs outside the BMP are not recombined — we never emit them) *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The code point an escape stands for; [pos] is just past the
   backslash, and ends past the escape. *)
let escape st =
  match peek st with
  | ('"' | '\\' | '/') as c ->
      advance st;
      Char.code c
  | 'b' -> advance st; 0x08
  | 'f' -> advance st; 0x0C
  | 'n' -> advance st; 0x0A
  | 'r' -> advance st; 0x0D
  | 't' -> advance st; 0x09
  | 'u' ->
      advance st;
      let cp = ref 0 in
      for _ = 1 to 4 do
        let d = hex_value (peek st) in
        if d < 0 then fail st "bad \\u escape";
        cp := (!cp * 16) + d;
        advance st
      done;
      !cp
  | _ -> fail st "bad escape"

(* The rest of a string literal from its first escape on, decoded into
   [b] when building. *)
let rec escaped st b =
  if st.pos >= st.n then fail st "unterminated string";
  match String.unsafe_get st.text st.pos with
  | '"' -> advance st
  | '\\' ->
      advance st;
      let cp = escape st in
      (match b with Some b -> add_utf8 b cp | None -> ());
      escaped st b
  | c when Char.code c < 0x20 -> fail st "control char in string"
  | c ->
      (match b with Some b -> Buffer.add_char b c | None -> ());
      advance st;
      escaped st b

(* A string literal whose bytes since [start] need no decoding: one
   [String.sub] if it ends without an escape. *)
let rec plain st start =
  if st.pos >= st.n then fail st "unterminated string";
  match String.unsafe_get st.text st.pos with
  | '"' ->
      let s =
        if st.build then String.sub st.text start (st.pos - start) else ""
      in
      advance st;
      s
  | '\\' when st.build ->
      let b = Buffer.create (st.pos - start + 16) in
      Buffer.add_substring b st.text start (st.pos - start);
      escaped st (Some b);
      Buffer.contents b
  | '\\' ->
      escaped st None;
      ""
  | c when Char.code c < 0x20 -> fail st "control char in string"
  | _ ->
      advance st;
      plain st start

let string_lit st =
  expect st '"';
  plain st st.pos

let digits st =
  let start = st.pos in
  while match peek st with '0' .. '9' -> true | _ -> false do
    advance st
  done;
  if st.pos = start then fail st "expected digit"

let number st =
  if peek st = '-' then advance st;
  digits st;
  if peek st = '.' then begin
    advance st;
    digits st
  end;
  match peek st with
  | 'e' | 'E' ->
      advance st;
      (match peek st with '+' | '-' -> advance st | _ -> ());
      digits st
  | _ -> ()

let rec same_at text pos s i =
  i = String.length s
  || (text.[pos + i] = s.[i] && same_at text pos s (i + 1))

let literal st s v =
  let l = String.length s in
  if st.pos + l <= st.n && same_at st.text st.pos s 0 then begin
    st.pos <- st.pos + l;
    v
  end
  else fail st ("expected " ^ s)

let rec value st =
  skip_ws st;
  let v =
    match peek st with
    | '{' ->
        advance st;
        skip_ws st;
        if peek st = '}' then begin
          advance st;
          Obj []
        end
        else members st []
    | '[' ->
        advance st;
        skip_ws st;
        if peek st = ']' then begin
          advance st;
          Arr []
        end
        else elements st []
    | '"' ->
        let s = string_lit st in
        if st.build then Str s else Null
    | 't' -> literal st "true" (Bool true)
    | 'f' -> literal st "false" (Bool false)
    | 'n' -> literal st "null" Null
    | '-' | '0' .. '9' ->
        (* every number the grammar admits is a valid [float_of_string] *)
        let start = st.pos in
        number st;
        if st.build then
          Num (float_of_string (String.sub st.text start (st.pos - start)))
        else Null
    | _ -> fail st "expected value"
  in
  skip_ws st;
  v

and members st acc =
  skip_ws st;
  let k = string_lit st in
  skip_ws st;
  expect st ':';
  let v = value st in
  let acc = if st.build then (k, v) :: acc else acc in
  match peek st with
  | ',' ->
      advance st;
      members st acc
  | '}' ->
      advance st;
      if st.build then Obj (List.rev acc) else Null
  | _ -> fail st "expected , or }"

and elements st acc =
  let v = value st in
  let acc = if st.build then v :: acc else acc in
  match peek st with
  | ',' ->
      advance st;
      elements st acc
  | ']' ->
      advance st;
      if st.build then Arr (List.rev acc) else Null
  | _ -> fail st "expected , or ]"

let scan ~build text =
  let st = { text; n = String.length text; pos = 0; build } in
  try
    let v = value st in
    if st.pos <> st.n then Error (Printf.sprintf "trailing bytes at %d" st.pos)
    else Ok v
  with Bad (msg, p) -> Error (Printf.sprintf "%s at byte %d" msg p)

let parse_json text = scan ~build:true text

let validate_json text = Result.map ignore (scan ~build:false text)

(* field accessor for readers of parsed JSON *)
let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let trace_text (entries : (int * Recorder.entry) array) =
  let b = Buffer.create (Array.length entries * 64) in
  Array.iter
    (fun (rep, { Recorder.time; seq; ev }) ->
      Buffer.add_string b
        (Printf.sprintf "rep%d %12.6f #%-7d %s\n" rep time seq
           (Event.to_string ev)))
    entries;
  Buffer.contents b

(* Plain-text dump of a merged causal record.  Times print with %.17g so
   byte-comparison across -j values is exact, and every field of a Send
   is spelled out — the .dag artifact doubles as the ground truth the CI
   determinism check diffs. *)
let dag_text (entries : (int * Causal.entry) array) =
  let b = Buffer.create (Array.length entries * 80) in
  Array.iter
    (fun (rep, { Causal.cz_time; cz_seq = _; cz_ev }) ->
      Buffer.add_string b
        (match cz_ev with
        | Causal.Root { id; client } ->
            Printf.sprintf "rep%d %.17g root #%d client %d\n" rep cz_time id
              client
        | Causal.Send
            { id; parent; xid; owner; kind; src; dst; bytes; pkts; retry; dup }
          ->
            Printf.sprintf
              "rep%d %.17g send #%d parent %d kind %s xid %d owner %d src %s \
               dst %s bytes %d pkts %d retry %d dup %d\n"
              rep cz_time id parent kind xid owner (Causal.ep_name src)
              (Causal.ep_name dst) bytes pkts retry dup
        | Causal.Recv { id } ->
            Printf.sprintf "rep%d %.17g recv #%d\n" rep cz_time id
        | Causal.Drop { id } ->
            Printf.sprintf "rep%d %.17g drop #%d\n" rep cz_time id
        | Causal.End { id; parent; xid; client; ok } ->
            Printf.sprintf "rep%d %.17g end #%d parent %d xid %d client %d ok %b\n"
              rep cz_time id parent xid client ok))
    entries;
  Buffer.contents b

let span_text (spans : (int * Span.entry) array) =
  let b = Buffer.create (Array.length spans * 72) in
  Array.iter
    (fun (rep, { Span.sp_time; sp_seq; sp_ev }) ->
      Buffer.add_string b
        (match sp_ev with
        | Span.Open { id; parent; track; kind; xid } ->
            Printf.sprintf "rep%d %12.6f #%-7d open  %-7d parent=%-7d %s %s x%d\n"
              rep sp_time sp_seq id parent
              (Span.track_name track) (Span.kind_name kind) xid
        | Span.Close { id; ok } ->
            Printf.sprintf "rep%d %12.6f #%-7d close %-7d %s\n" rep sp_time
              sp_seq id
              (if ok then "ok" else "failed")))
    spans;
  Buffer.contents b
