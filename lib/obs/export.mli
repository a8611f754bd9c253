(** Artifact exporters for traces and series.

    The Perfetto exporter emits Chrome [trace_event] JSON (load it at
    [https://ui.perfetto.dev] or [chrome://tracing]): every entry becomes
    an instant event on the track of its client (pid = replication index,
    tid = client id + 1, tid 0 = server/system), each paired
    lock-wait/grant becomes a duration bar, and every closed span record
    becomes an ["X"] (complete) duration event — client spans on the
    client lanes, server spans on one named lane per shard
    (tid = 1000000 + shard), so a sharded run renders as one timeline.

    Both formats come with a reader so artifacts can be verified without
    external tools: {!validate_json} parses the emitted JSON,
    {!series_of_csv} round-trips the CSV exactly ([%.17g] floats). *)

(** Chrome/Perfetto trace_event JSON of a merged trace
    (see {!Run.merged_trace}), plus duration events for [spans]
    (see {!Run.merged_spans}), plus flow arrows for [flows] (a merged
    causal record, see {!Run.merged_causal}): each delivered message
    copy draws an arrow from its sender's lane at the send instant to
    its receiver's at delivery, with the message kind as the flow name
    and ["causal"] as the category. *)
val perfetto :
  ?spans:(int * Span.entry) array ->
  ?flows:(int * Causal.entry) array ->
  (int * Recorder.entry) array ->
  string

(** Plain-text dump, one line per event ("repN  time  #seq  description"). *)
val trace_text : (int * Recorder.entry) array -> string

(** Plain-text dump of a merged span record, one line per open/close. *)
val span_text : (int * Span.entry) array -> string

(** Plain-text dump of a merged causal record, one line per node, with
    [%.17g] times — the deterministic [.dag] artifact. *)
val dag_text : (int * Causal.entry) array -> string

(** CSV of one series: a metadata comment line, a [time,<names>] header,
    one row per sample. *)
val series_csv : Series.t -> string

(** Parse {!series_csv} output back; round-trips exactly.
    Raises [Failure] on malformed input. *)
val series_of_csv : string -> Series.t

(** Parsed JSON value.  Object members are kept in document order. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(** Parse RFC 8259 JSON text (the subset {!perfetto} and the benchmark's
    result lines use; [\u] escapes are decoded to UTF-8). *)
val parse_json : string -> (json, string) result

(** [member k (Obj ...)] looks up a field; [None] on missing key or
    non-object. *)
val member : string -> json -> json option

(** Validate that [text] is well-formed JSON ({!parse_json}, value
    discarded). *)
val validate_json : string -> (unit, string) result

(** Escape a string for inclusion inside JSON double quotes. *)
val json_escape : string -> string

val write_file : string -> string -> unit
