(* Artifact exporters: Chrome/Perfetto trace_event JSON for the merged
   trace, and CSV for sampled series.  Both formats are written by hand
   (no JSON/CSV dependency in the tree) and both come with a reader —
   [validate_json] parses the JSON we emit, [series_of_csv] round-trips
   the CSV — so the CI smoke job can verify artifacts without external
   tooling. *)

(* ------------------------------------------------------------------ *)
(* JSON building blocks                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Perfetto / Chrome trace_event format                                *)
(* ------------------------------------------------------------------ *)

(* One JSON object per trace entry, in the "i" (instant) phase, plus an
   "X" (complete) event per paired lock wait so Perfetto renders waits as
   bars.  pid = replication index, tid = client id + 1 (0 is the
   server/system track).  Timestamps are microseconds of simulated time. *)

let us t = t *. 1e6

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
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let obj s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  (* name the rep processes and client threads once per (pid, tid) *)
  let seen_pid = Hashtbl.create 8 and seen_tid = Hashtbl.create 64 in
  let metadata pid tid =
    if not (Hashtbl.mem seen_pid pid) then begin
      Hashtbl.add seen_pid pid ();
      obj
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\
            \"args\":{\"name\":\"rep %d\"}}"
           pid pid)
    end;
    if not (Hashtbl.mem seen_tid (pid, tid)) then begin
      Hashtbl.add seen_tid (pid, tid) ();
      let label =
        if tid = 0 then "server/system"
        else if tid >= shard_tid_base then
          Printf.sprintf "shard %d" (tid - shard_tid_base)
        else Printf.sprintf "client %d" (tid - 1)
      in
      obj
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\
            \"args\":{\"name\":\"%s\"}}"
           pid tid label)
    end
  in
  (* lock-wait pairing for duration events, per (rep, client, page) *)
  let waiting = Hashtbl.create 64 in
  Array.iter
    (fun (rep, { Recorder.time; ev; seq }) ->
      let tid = tid_of ev in
      metadata rep tid;
      obj
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\
            \"tid\":%d,\"args\":{\"seq\":%d,\"detail\":\"%s\"}}"
           (json_escape (Event.kind ev))
           (us time) rep tid seq
           (json_escape (Event.to_string ev)));
      match ev with
      | Event.Lock_wait { client; page; _ } ->
          Hashtbl.replace waiting (rep, client, page) time
      | Event.Lock_grant { client; page; mode } -> (
          match Hashtbl.find_opt waiting (rep, client, page) with
          | Some t0 ->
              Hashtbl.remove waiting (rep, client, page);
              obj
                (Printf.sprintf
                   "{\"name\":\"lock-wait p%d (%s)\",\"ph\":\"X\",\"ts\":%.3f,\
                    \"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{}}"
                   page (json_escape mode) (us t0)
                   (us (time -. t0))
                   rep (client + 1))
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
              obj
                (Printf.sprintf
                   "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
                    \"pid\":%d,\"tid\":%d,\"args\":{\"xid\":%d,\"ok\":%b}}"
                   (json_escape (Span.kind_name kind))
                   (us t0)
                   (us (sp_time -. t0))
                   rep tid xid ok)))
    spans;
  (* causal messages become flow arrows: a "s" (flow start) event on the
     sender's lane at the send instant and a matching "f" (flow finish,
     binding to the enclosing slice) on the receiver's at delivery.  Only
     delivered copies draw an arrow — a drop has nowhere to land.  Flow
     ids are strings ("rep-node"), unique across reps by construction. *)
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
              obj
                (Printf.sprintf
                   "{\"name\":\"%s\",\"cat\":\"causal\",\"ph\":\"s\",\
                    \"id\":\"%d-%d\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}"
                   (json_escape kind) rep id (us t0) rep src_tid);
              obj
                (Printf.sprintf
                   "{\"name\":\"%s\",\"cat\":\"causal\",\"ph\":\"f\",\
                    \"bp\":\"e\",\"id\":\"%d-%d\",\"ts\":%.3f,\"pid\":%d,\
                    \"tid\":%d}"
                   (json_escape kind) rep id (us cz_time) rep dst_tid))
      | Causal.Root _ | Causal.Drop _ | Causal.End _ -> ())
    flows;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
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

(* A recursive-descent parser for RFC 8259 JSON.  Originally a pure
   validator for the Perfetto smoke job; it now builds a value so the
   benchmark (perfbench/) can read its own result lines back without any
   external JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string * int

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
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
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char b c;
              advance ();
              go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'u' ->
              advance ();
              let cp = ref 0 in
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' as c) ->
                    cp := (!cp * 16) + (Char.code c - Char.code '0');
                    advance ()
                | Some ('a' .. 'f' as c) ->
                    cp := (!cp * 16) + (Char.code c - Char.code 'a' + 10);
                    advance ()
                | Some ('A' .. 'F' as c) ->
                    cp := (!cp * 16) + (Char.code c - Char.code 'A' + 10);
                    advance ()
                | _ -> fail "bad \\u escape"
              done;
              add_utf8 b !cp;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digits () =
      let had = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            had := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !had then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub text start (!pos - start))
  in
  let literal s v =
    let l = String.length s in
    if !pos + l <= n && String.sub text !pos l = s then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ s)
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (elements [])
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> Num (number ())
      | _ -> fail "expected value"
    in
    skip_ws ();
    v
  in
  try
    let v = value () in
    if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos)
    else Ok v
  with Bad (msg, p) -> Error (Printf.sprintf "%s at byte %d" msg p)

let validate_json text =
  match parse_json text with Ok _ -> Ok () | Error e -> Error e

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
