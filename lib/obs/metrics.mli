(** Metrics registry: named counters, gauges and log2 histograms.

    One registry per instrumented component (an {!Htm.t} domain, a
    {!Simmem.t} heap); registries optionally chain to a [parent], in which
    case every update is mirrored into the same-named metric there. The
    benchmark harness hands one aggregate parent registry to every machine
    it builds, so a sweep over dozens of simulated machines accumulates
    one fleet-wide snapshot while each machine keeps exact local stats.

    All updates are plain field mutations on pre-resolved handles — no
    hashing, no allocation, no virtual-time cost — so metrics can sit on
    the hottest simulator paths.

    Registration is idempotent: asking for an existing name returns the
    existing handle (registering the same name as a different kind is an
    error). Snapshots list metrics in first-registration order, making
    rendered output deterministic. *)

type t

val create : ?parent:t -> unit -> t

(** {1 Counters} *)

type counter

val counter : ?per_thread:bool -> t -> string -> counter
(** Get or register. With [per_thread] the counter additionally keeps a
    per-thread breakdown (thread ids below 257: {!Sim.max_threads}
    runnable threads plus the boot context), allocated at
    its first attributed increment: registering one costs no more than a
    plain counter. *)

val incr : ?tid:int -> ?by:int -> counter -> unit
(** Add [by] (default 1), attributed to [tid] when the counter is
    per-thread. Mirrors into the parent chain. *)

val incr_t : counter -> int -> unit
(** [incr_t c tid] = [incr ~tid c], without the optional-argument boxing —
    the form hot simulator paths use. *)

val incr1 : counter -> unit
(** [incr1 c] = [incr c], allocation-free. *)

val incr_by : counter -> int -> unit
(** [incr_by c by] = [incr ~by c], allocation-free. *)

val value : counter -> int

val per_thread : counter -> (int * int) list
(** [(tid, count)] for every thread with a nonzero count, ascending tid;
    empty for counters registered without [per_thread]. *)

(** {1 Gauges}

    A gauge tracks a current level and remembers its high-water mark —
    live words, queue depth, store-buffer occupancy. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val add : gauge -> int -> unit
val gauge_value : gauge -> int

val gauge_max : gauge -> int
(** Highest value ever set (0 for a gauge never touched). *)

(** {1 Log2 histograms}

    Bucket [i] counts observations in [\[2{^i}, 2{^i+1})]; observations
    [<= 1] land in bucket 0. *)

type hist

val hist : t -> string -> hist
val observe : hist -> int -> unit

val buckets : hist -> (int * int) list
(** [(2{^i}, count)] for nonempty buckets, ascending. *)

val hist_count : hist -> int
(** Total observations. *)

val percentile : hist -> float -> int
(** [percentile h q] resolves the [q]-quantile ([0. <= q <= 1.], clamped)
    to the {e lower bound} of the first bucket whose cumulative count
    reaches [ceil (q * n)] — the same [lo] values {!buckets} reports, so
    the result is exact to within one power of two. Returns 0 for an
    empty histogram. *)

val p50 : hist -> int
val p99 : hist -> int

val p999 : hist -> int
(** Tail-latency shorthands: [percentile h 0.5] / [0.99] / [0.999]. *)

(** {1 Reset}

    Resets clear the local handle only — parent mirrors keep their
    accumulated totals (the aggregate is a trajectory, not a per-phase
    stat). *)

val reset_counter : counter -> unit

val reset : t -> unit
(** Reset every metric registered in this registry. *)

(** {1 Snapshots} *)

type value =
  | Counter of { total : int; per_tid : (int * int) list }
  | Gauge of { current : int; high : int }
  | Hist of (int * int) list

type snapshot = (string * value) list

val snapshot : t -> snapshot
(** All metrics in first-registration order. *)

val absorb : t -> snapshot -> unit
(** Merge a snapshot into the registry, as if it had observed everything
    the snapshotted registry did, sequenced after its own history:
    counters and histogram buckets add (per-thread attribution kept),
    gauge levels add and the high-water mark composes sequentially. The
    sweep runner uses this to fold per-cell registries into the
    experiment-wide one in canonical cell order, which makes the merged
    registry independent of how the cells were scheduled. *)

val to_json : t -> Json.t
(** [{schema: "metrics/1", metrics: {name: {...}}}] — the [--metrics]
    file format. Counters render as [{total, per_thread?}], gauges as
    [{current, high}], histograms as [{buckets: [[lo, count]]}]. *)
