(** Online metrics registry: log-bucketed histograms with O(1) record
    and exact associative merge, counters, gauges — exported as
    OpenMetrics text.

    Every numeric state that merging must preserve exactly is an
    integer (counter values, histogram bucket counts), so merging
    per-replication registries recorded in different domains yields one
    deterministic artifact at any [-j].  Recording never holds or draws
    randomness: enabling metrics cannot perturb a simulation. *)

module Hist : sig
  type t

  (** Sub-buckets per octave. *)
  val sub : int

  val n_buckets : int
  val create : unit -> t
  val record : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  (** Index of the bucket holding [v]. *)
  val bucket_of : float -> int

  (** [lower, upper) range of a bucket.  The quantile estimate's error
      is bounded by [upper -. lower] of the answering bucket. *)
  val bucket_bounds : int -> float * float

  (** Nearest-rank estimate: the upper bound of the bucket holding the
      rank-⌈q·n⌉ observation — within one bucket width of the truth. *)
  val quantile : t -> float -> float

  (** Element-wise bucket addition: exactly associative/commutative. *)
  val merge : t -> t -> t

  (** Equality of the integer state (total and buckets; [sum] excluded). *)
  val equal : t -> t -> bool

  val copy : t -> t
  val counts : t -> int array
end

type t

val create : unit -> t
val incr : t -> string -> int -> unit
val set_gauge : t -> string -> float -> unit
val observe : t -> string -> float -> unit
val counter_value : t -> string -> int option
val gauge_value : t -> string -> float option
val histogram : t -> string -> Hist.t option
val is_empty : t -> bool

(** Counters and histograms add; gauges take the max. *)
val merge : t list -> t

val equal : t -> t -> bool

(** OpenMetrics text exposition, sorted by series name.  Series names
    may carry labels inline ("name{k=\"v\"}"); histograms expand into
    cumulative [_bucket]/[_count]/[_sum] series with empty buckets
    elided. *)
val to_openmetrics : t -> string
