(** Shared machinery for the paper's microbenchmarks: machine construction,
    virtual-time accounting, measured and periodic operation loops, and the
    globally unique value supply. *)

val cycles_per_us : int
(** 2000: the virtual clock rate used to convert cycles to the paper's
    ops/µs and ns axes. *)

val warmup : int
(** Virtual time at which measurement windows begin; setup work must
    complete before it. *)

type machine = { mem : Simmem.t; htm : Htm.t; boot : Sim.tctx }

(** Harness-wide observability. Workloads build machines internally, so
    the benchmark front-end installs sinks once with {!set_obs}; every
    {!machine} built afterwards attaches itself — a tracer process per
    machine ({!Simmem.tracer_sink}), the shared metrics registry as
    parent of its heap's and HTM domain's registries, and a per-machine
    contention profiler and forensics aggregator when asked for, all
    attached through the one {!Simmem.attach} call; the heap's
    {!Simmem.observer} becomes the scheduler's ambient observer. *)
type obs = {
  obs_tracer : Obs.Tracer.t option;
  obs_metrics : Obs.Metrics.t option;
  obs_profile : bool;
  obs_forensics : bool;
      (** attach a per-machine {!Obs.Forensics.t} (conflict witnesses,
          escalation timelines, allocation provenance) to every machine
          built afterwards *)
}

val no_obs : obs

val set_obs : obs -> unit
(** Install the observability sinks and reset the machine-label sequence,
    profiler log and ambient observer. *)

val obs : unit -> obs
(** The currently installed sinks (for experiments that re-install a
    variant — e.g. the contention profile — and restore afterwards). *)

val profilers : unit -> (string * Obs.Profiler.t) list
(** Per-machine contention profilers created since the last {!set_obs},
    labelled, in machine-creation order. *)

val machine :
  ?htm_config:Htm.config ->
  ?seed:int ->
  ?label:string ->
  ?threads:int ->
  ?heap_words:int ->
  ?alloc:Simmem.alloc_policy ->
  unit ->
  machine
(** [label] names the machine's tracer process and profiler entry
    (default ["machine-<n>"] in creation order). [threads] sizes the
    heap's sharer sets for runs wider than the 61-thread default;
    [heap_words] sets the initial heap extent (see {!Simmem.create}) —
    the scale study passes million-word heaps so growth never perturbs
    the measured region. [alloc] selects the allocation policy (default
    {!Simmem.Shared_lifo}; [bench placement] builds arena machines per
    placement and records the policy label in its artifact). *)

val fresh_value : unit -> int
(** Globally unique non-zero values; the spec checker relies on every
    bound value identifying one bind event. *)

val ops_per_us : ops:int -> duration:int -> float

val ops_of_per_us : per_us:float -> duration:int -> int
(** The operation count behind an {!ops_per_us} throughput, rounded: the
    float round trip can land just below the count (55 read as 54). *)

val tick_dispatch : Sim.tctx -> unit
(** Charge the per-op dispatch cost with jitter (see the implementation
    note on phase-locking). *)

val measured_loop : Sim.tctx -> deadline:int -> (unit -> unit) -> int
(** Run the operation back-to-back from {!warmup} until [deadline];
    returns the number of completed operations. *)

val periodic_loop : Sim.tctx -> deadline:int -> period:int -> (unit -> unit) -> unit
(** Fire the operation every [period] cycles from {!warmup} until
    [deadline]. *)

val split_evenly : int -> int -> int list
(** [split_evenly total n] is [n] parts of [total] differing by at most
    one. *)
