(** Deterministic SplitMix64 pseudo-random number generator.

    Every source of nondeterminism in the simulator (scheduler tie-breaks,
    workload op mixes, backoff jitter) draws from one of these generators,
    all seeded from a single experiment seed, so runs are replayable. *)

type t

val create : int -> t
(** [create seed] makes a generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val int : t -> int -> int
(** [int t bound] returns a uniform value in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val skip : t -> int -> unit
(** [skip t k] advances [t] past [k] outputs in O(1): the stream then
    continues exactly as after [k] calls of any drawing function
    ([int], [bits], [bool], [float], [bits64]; each takes one output).
    @raise Invalid_argument if [k < 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** The low 63 bits of the next output as a native int — exactly
    [Int64.to_int (bits64 t)] on the same state, without the box. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)
