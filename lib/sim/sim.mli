(** Deterministic virtual-time simulator of a small multiprocessor.

    Threads are OCaml-5 effect-based cooperative fibers, each with a private
    virtual clock measured in CPU cycles. The scheduler always resumes a
    runnable thread with the minimal clock, so any two events on different
    threads interleave exactly as their virtual timestamps dictate. Shared-
    memory operations (see {!Simmem}) charge cycle costs and yield, which is
    where interleavings — and hence races and transaction conflicts — occur.

    Determinism: for a fixed seed, thread count and thread bodies, the
    interleaving is reproducible bit-for-bit.

    This substitutes for the 16-core Rock machine used in the paper: the
    paper's axes (cycles, ops/µs) map directly onto virtual time. *)

module Rng = Rng
module Ibuf = Ibuf
module Fault = Fault

type tctx
(** Per-thread context: identity, virtual clock, private RNG. A [tctx] is
    only valid on the fiber it was handed to (or, for a boot context,
    outside [run] entirely). *)

exception Stop_thread
(** Raise inside a thread body to terminate that thread immediately;
    the simulation continues. Injected kills ({!Fault}) use the same
    exception, so structures that must survive crashes need only be
    exception-safe against it. *)

exception Watchdog of string
(** Raised by {!run} when a liveness watchdog was armed and the schedule
    advanced more than the budget past the last {!note_progress}. The
    payload is a full diagnostic: per-thread clocks, run states and
    progress recency, plus the caller's [diag] section. *)

(** The memory-consistency variant matrix (docs/MEMORY_ORDERING.md).
    [Sim] owns the vocabulary; the semantics live in {!Simmem}'s
    per-thread FIFO store buffers. The named presets:

    - [sc]: sequential consistency — no buffering; the pre-weak-memory
      behavior, byte-identical artifacts.
    - [sb]: TSO-style store buffering — stores enter a bounded FIFO and
      become visible at drain points (fences, atomics, capacity overflow,
      thread termination); loads forward from the newest own-buffer entry.
    - [sb-bypass]: like [sb] but loads ignore the own buffer (a machine
      with store buffering and no store-to-load forwarding — reads your
      own stale value).
    - [sb-fence-nop]: like [sb] but fences drain nothing — the
      bug-finding control: code whose correctness depends on its fences
      must fail under this variant. *)
module Memmodel : sig
  type t = {
    buffered : bool;  (** per-thread FIFO store buffer active *)
    sb_depth : int;  (** capacity; a full buffer drains its oldest entry *)
    forward_loads : bool;  (** loads see the newest own-buffer entry *)
    fence_drains : bool;  (** fences drain the buffer *)
  }

  val sc : t
  val sb : t
  val sb_bypass : t
  val sb_fence_nop : t

  val all : (string * t) list
  (** The named variants, in canonical order: [sc], [sb], [sb-bypass],
      [sb-fence-nop]. *)

  val to_string : t -> string
  (** The canonical name, or a [custom[...]] rendering for models built by
      hand (e.g. a depth-1 buffer in a litmus test). *)

  val of_string : string -> t option
  (** Inverse of {!to_string} on the named variants only. *)
end

val boot : ?seed:int -> unit -> tctx
(** A context usable outside [run], e.g. to initialise shared structures
    before the threads start. It charges costs to its own clock but never
    yields. Its thread id is {!boot_tid}. *)

val boot_tid : int
(** Reserved thread id of boot contexts (larger than any runnable tid). *)

val max_threads : int
(** Maximum number of simulated threads ([256]; sharer sets in [Simmem]
    are multi-word bitmasks sized to each heap's configured capacity).
    Exploring strategies and recording still encode runnable sets in a
    single word and accept at most 61 threads. *)

(** Scheduling strategies for systematic schedule exploration (see
    {!Explore} in [lib/explore]). The default, {!Min_clock}, always resumes
    the runnable thread with the smallest virtual clock — the
    virtual-time-faithful schedule used by every benchmark. The other
    strategies deliberately decouple execution order from virtual time to
    drive one program through many distinct interleavings:

    - {!Random_walk}: at every scheduling point, pick a runnable thread
      uniformly at random from a stream seeded by [rw_seed].
    - {!Pct}: probabilistic concurrency testing (Burckhardt et al.): each
      thread gets a random priority, the highest-priority runnable thread
      always runs, and at [pct_depth - 1] random change points the running
      thread is demoted below everyone else. Finds any bug of depth [d]
      with probability >= 1/(n·k^(d-1)) per schedule.
    - {!Deviate}: replay mode. Runs min-clock except at the listed choice
      points (indices of scheduling decisions where >= 2 threads were
      runnable), where the named thread is forced instead. A schedule
      recorded by a {!recorder} is reproduced exactly by replaying its
      {!deviations}; shrinking a failure means shrinking that list.

    Under any non-default strategy virtual clocks are no longer globally
    ordered, so treat cycle counts as per-thread costs only, and judge
    correctness oracles by execution order (e.g. logical stamps), never by
    comparing clocks across threads. *)
type strategy =
  | Min_clock
  | Random_walk of { rw_seed : int }
  | Pct of { pct_seed : int; pct_depth : int; pct_length : int }
  | Deviate of (int * int) list

val pp_strategy : Format.formatter -> strategy -> unit

val pct_change_points : seed:int -> depth:int -> length:int -> int list
(** The exact priority-change points a [Pct { pct_seed = seed; pct_depth =
    depth; pct_length = length }] strategy will use: [max 0 (depth - 1)]
    positions drawn uniformly from [0, max 1 length), sorted ascending.
    Pure and deterministic in its arguments. *)

val pick_min : Rng.t -> int array -> int * int
(** [pick_min rng clocks] is the min-clock scheduling decision over an
    array of parked clocks, where [max_int] marks a thread that cannot run
    and clocks are never negative: [(tid, second)]. [tid] has the minimal
    clock ([-1] if none can run); ties are broken by a reservoir scan in
    ascending index order, in which every entry equal to the running
    minimum when visited draws [Rng.int rng ties] and is picked on 0.
    [second] is the second-smallest runnable clock counted with
    multiplicity ([max_int] if fewer than two can run). {!run} makes
    exactly this decision, with exactly these draws, at every switch. *)

type recorder
(** Accumulates the scheduling decisions of one {!run}: the full pick
    sequence and the sparse list of deviations from the min-clock default.
    Installing a recorder forces exploring mode (every tick is a
    scheduling decision), so a recorded [Min_clock] run may break clock
    ties differently from an unrecorded one. *)

val recorder : unit -> recorder

val deviations : recorder -> (int * int) list
(** [(choice_index, tid)] for every decision where >= 2 threads were
    runnable and the strategy chose differently from min-clock. Replaying
    [Deviate (deviations r)] with the same seed, bodies and faults
    reproduces the recorded schedule exactly. *)

val decision_string : recorder -> string
(** The pick sequence as [";"]-separated decimal tids — a compact
    fingerprint for determinism assertions (same seed and strategy implies
    byte-identical strings). *)

val choices : recorder -> (int * int * int) list
(** Every counted scheduling decision (>= 2 threads runnable) as
    [(choice_index, runnable_tid_bitmask, chosen_tid)], in order. The
    bitmask enumerates the alternatives available at that index, which is
    exactly what an exhaustive schedule search needs to branch: replaying
    [Deviate] with the recorded prefix plus one [(index, alt)] forces any
    runnable alternative, and the prefix guarantees the same machine state
    (hence the same mask) at that index. *)

val run :
  ?seed:int ->
  ?strategy:strategy ->
  ?record:recorder ->
  ?faults:Fault.t ->
  ?watchdog:int ->
  ?diag:(unit -> string) ->
  ?tracer:Obs.Tracer.sink ->
  ?on_fault:(Fault.event -> unit) ->
  (tctx -> unit) array ->
  unit
(** [run bodies] executes one fiber per body until all finish. Thread [i]
    gets tid [i] and a fresh RNG derived from [seed] and [i].

    [strategy] selects the scheduling strategy (default {!Min_clock});
    [record] logs every scheduling decision into the given {!recorder}.

    [faults] installs a fault plan: it is consulted at every {!tick} /
    {!advance_to} scheduling point and may stall the thread (preemption)
    or kill it ({!Stop_thread}); the HTM layer additionally consults its
    spurious-abort stream. Inspect the plan with {!Fault.events} after
    the run.

    [watchdog] arms a liveness check with the given cycle budget: if no
    thread calls {!note_progress} while the schedule's frontier advances
    by more than the budget, the run fails fast with {!Watchdog} instead
    of spinning forever. Size the budget above any legitimately silent
    phase (e.g. a measurement warmup). [diag] contributes an extra
    section (e.g. HTM abort counters) to the watchdog diagnostic.

    [tracer] attaches every thread to an {!Obs.Tracer} sink (default: the
    ambient sink, see {!set_default_tracer}): the scheduler records each
    run slice as a span, and fault injections as instants. [on_fault] is
    called at each injected fault (stall, kill, spurious abort), e.g. to
    merge fault lines into an exploration trace. Both taps charge zero
    virtual cycles and consume no simulator RNG: a traced run is
    cycle-for-cycle identical to an untraced one.

    @raise Invalid_argument if there are 0 bodies or more than
    {!max_threads}. *)

val set_default_tracer : Obs.Tracer.sink option -> unit
(** Install (or clear) the ambient tracer sink that {!run} picks up when
    no explicit [?tracer] is given. The benchmark driver points this at
    the current machine's process sink so workloads that call [Sim.run]
    internally are traced without signature changes. *)

val note_progress : tctx -> unit
(** Feed the liveness watchdog: record that this thread just completed
    useful work (an operation, a transaction commit). {!Htm} calls this
    on every commit; workloads call it per completed operation. *)

val shield : tctx -> (unit -> unit) -> unit
(** [shield ctx f] runs [f] with fault injection suspended on this thread:
    no stalls, kills or spurious events fire inside. Models cleanup code
    that is crash-safe by construction (a robust lock release, an
    OS-level teardown path); costs are still charged and scheduling still
    happens. Nestable. *)

val fault_point : tctx -> string -> unit
(** [fault_point ctx name] marks the thread's passage through the named
    code point and fires any pending [kills_at_point] entry of the
    installed fault plan ({!Fault.spec}) aimed at it, raising
    {!Stop_thread}. Free (no cycles, no yield, no RNG) and inert under
    {!shield} or without a plan, so registering a point never perturbs a
    fault-free run. {!Stm} registers ["stm.commit"] — the window between
    versioned-lock acquisition and write-back. *)

val spurious_fires : tctx -> bool
(** Consult the installed fault plan's per-thread spurious-event stream
    (one draw per call). False when no plan is installed, the rate is
    zero, or the thread is {!shield}ed. {!Htm} calls this once per
    hardware transaction attempt. *)

val tid : tctx -> int
val clock : tctx -> int

val rng : tctx -> Rng.t
(** The thread-private RNG. *)

val tick : tctx -> int -> unit
(** [tick ctx cost] charges [cost] cycles and yields if another thread's
    clock is now behind this one. This is the scheduling point used by every
    shared-memory access. *)

val charge : tctx -> int -> unit
(** [charge ctx cost] advances the clock {e without} yielding. Used for the
    commit phase of transactions, which must be atomic in virtual time. *)

val fence : ?cost:int -> tctx -> unit
(** A full memory fence ([membar #StoreLoad] on the paper's SPARC target):
    runs this thread's registered drain hooks (flushing its store buffer
    under a buffered {!Memmodel}, unless the model says fences drain
    nothing), then charges [cost] cycles (default 60) as a scheduling
    point. With no hooks registered — the [sc] model, or a thread that
    never buffered a store — this is exactly [tick ctx cost], so fenced
    code is cycle-identical to the old tick-only fence stubs. *)

val register_drain : tctx -> (terminal:bool -> unit) -> unit
(** Install a drain hook on this thread, called by {!fence} with
    [~terminal:false] and at thread termination (normal return or a kill)
    with [~terminal:true]. Terminal hooks must not tick or yield — the
    fiber is past its last scheduling point; use {!charge}. Intended for
    memory layers ({!Simmem} registers one per thread that buffers a
    store); hooks run in registration order. *)

val advance_to : tctx -> int -> unit
(** [advance_to ctx t] sleeps until virtual time [t] (no-op if already
    past), then yields. Workloads use it to pace periodic operations and to
    align threads on a common measurement start time. *)

val stop : unit -> 'a
(** Terminate the current thread ([raise Stop_thread]). *)

(** Randomized exponential backoff for retry loops (transaction retries,
    CAS loops). Pure: the caller carries the attempt number and ticks the
    delay onto its own clock. *)
module Backoff : sig
  val bound : base:int -> cap:int -> int -> int
  (** [bound ~base ~cap n] is the pure backoff envelope for retry attempt
      [n]: [min cap (base lsl min n 9)]. Monotone in [n] until it reaches
      [cap], then constant — the property the transaction layers' retry
      loops rely on, stated as a function so it is testable without a
      scheduler. *)

  val delay : base:int -> cap:int -> Rng.t -> int -> int
  (** One randomized delay inside the attempt-[n] envelope: uniform in
      [\[bound/2, bound)]. Pure in the RNG state — the same stream yields
      the same sequence, which is what keeps backoff byte-identical
      across [--jobs] under the sweep runner. *)
end

val yield_count : int ref
(** Cumulative count of scheduler yields (context switches) performed by
    every run in this domain. Pure wall-side diagnostic for performance
    work: zero it, run a cell, read it back to see how many effect
    switches the schedule mandated (docs/PERFORMANCE.md quotes it).
    Untouched by virtual time and never read by the simulator itself. *)
