(** Deterministic pseudo-random streams (splitmix64).

    Every stochastic component of the simulator draws from its own stream so
    that changing one component (say, the workload of client 3) does not
    perturb the randomness seen by any other — the standard variance-reduction
    discipline for simulation studies.  Streams are derived from a master
    seed with [split], which hashes a label into an independent substream. *)

type t

(** [create seed] is a stream seeded with [seed]. *)
val create : int -> t

(** [split t label] is an independent stream derived deterministically from
    [t]'s seed and [label].  Splitting does not advance [t]. *)
val split : t -> string -> t

(** Next raw 64-bit value. *)
val bits64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** [int t n] is exactly uniform in [0, n-1] for any positive [n] (rejection
    sampling over 63-bit draws; no float round-trip). *)
val int : t -> int -> int

(** [uniform_int t lo hi] is uniform in [lo, hi] inclusive. *)
val uniform_int : t -> int -> int -> int

(** [uniform_float t lo hi] is uniform in [lo, hi). *)
val uniform_float : t -> float -> float -> float

(** [exponential t ~mean] draws from Exp(1/mean); returns 0 when [mean=0]. *)
val exponential : t -> mean:float -> float

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool
