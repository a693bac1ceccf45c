(** Simulated hardware transactional memory, modelled on Sun's Rock.

    The properties the paper's algorithms rely on (§6) are all modelled and
    individually switchable:

    - {b bounded write sets}: a transaction aborts with [Overflow] after
      more than [store_buffer] stores (32 on Rock). Telescoped collects
      account their result-set stores through {!record};
    - {b sandboxing}: a transactional load from freed or unmapped memory
      aborts the transaction ([Illegal]) instead of faulting. With
      [sandboxed = false], it raises {!Simmem.Fault} like a plain segfault
      — the ablation showing why the paper's footnote 1 matters;
    - {b strong atomicity}: non-transactional stores bump word versions, so
      any transaction that has read the word aborts ([Conflict]);
    - {b no progress guarantee}: by default transactions retry with
      randomized exponential backoff. The escalation policy decides what
      happens when retrying stops paying:
    - {b TLE} ([tle = Tle_after n]): the [n]-th consecutive abort falls
      back to a global lock, executing the block non-transactionally while
      every hardware transaction monitors the lock word (the paper's §6
      TLE construction) — correct, but serializing;
    - {b hybrid STM slow path} ([stm = Stm_after m]): aborts escalate to
      the {!Stm} software path instead — capacity aborts immediately
      (hardware can never fit them), conflicts after [m] backed-off
      hardware retries. The software path runs the {e same block} through
      the same {!tx} surface, commits transactions of any size, keeps
      threads parallel, and falls back to the TLE lock only if its own
      attempt budget ([stm_attempts]) runs dry and [tle <> Tle_never].
      The degradation lattice is hardware → backoff → STM → lock;
    - {b opacity}: the read set is fully revalidated on every transactional
      access, so a doomed transaction never observes an inconsistent
      snapshot (on Rock, eager hardware conflict detection gives the same
      effect).

    Transactions execute atomically in virtual time: the commit phase
    charges cycle costs without yielding. Aborts are modelled by re-running
    the block, so blocks must be written to be re-executable from scratch
    (reset any external accumulation at the top of the block — see
    {!Sim.Ibuf.reset_to}). *)

module Adapt = Adapt

(** The transaction vocabulary, shared with the {!Stm} slow path (see
    {!Simmem.Txn}): the six abort reasons, the {!Retry_exhausted}
    exception and the path-tagged {!tx_event}s both paths report to the
    heap's sinks ({!Simmem.attach}). *)
include module type of struct
  include Simmem.Txn
end

type tle_mode =
  | Tle_never  (** no global-lock fallback *)
  | Tle_after of int
      (** fall back to the global lock after [n] aborts. With an STM
          policy installed ([Stm_after _]) the count is ignored: any
          non-[Tle_never] value enables the lock as the {e last} resort,
          reached only when the STM attempt budget is exhausted. *)

(** Escalation from hardware to the {!Stm} software path. *)
type stm_mode =
  | Stm_never  (** hardware (plus TLE, if configured) only *)
  | Stm_after of int
      (** escalate to STM after [m] aborted hardware attempts — or after
          the {e first} [Overflow], which no hardware retry can fix.
          [Stm_after 0] runs every transaction on the software path. *)

(** Conflict-detection granularity of the hardware path.

    [Word] (the default) is the idealized per-word detector every
    committed baseline was generated under: only a store to the very
    word a transaction read can doom it.

    [Line] validates the read set against {!Simmem}'s per-line versions,
    the way real HTMs (Rock, TSX) snoop whole cache lines: a committed
    store {e anywhere} on a line the transaction read aborts it —
    including stores to unrelated blocks that the allocator happened to
    pack onto the same line. This is the false-sharing abort channel
    "The Influence of Malloc Placement on TSX Hardware Transactional
    Memory" measures, and what [bench placement] ablates against the
    {!Simmem.placement} policies. *)
type granularity = Simmem.granularity = Word | Line

type config = {
  store_buffer : int;  (** stores per transaction; Rock: 32 *)
  tx_begin_cost : int;
  tx_commit_cost : int;
  tx_store_cost : int;  (** store-buffer insertion *)
  tx_abort_cost : int;
  backoff_base : int;  (** first retry backoff, in cycles; randomized *)
  backoff_max : int;
  sandboxed : bool;
  granularity : granularity;
  tle : tle_mode;
  stm : stm_mode;
  stm_attempts : int;
      (** STM attempt budget before falling to the TLE lock; [0] = the
          software path retries forever (never reaches the lock) *)
  stm_config : Stm.config;
      (** configuration of the STM side table when [stm <> Stm_never] *)
  max_attempts : int;
      (** retry budget: abandon the operation with {!Retry_exhausted} after
          this many consecutive aborted hardware attempts, unless TLE or
          STM escalates first ([Tle_after k] with [k <= budget] guarantees
          completion). [0] = unlimited (the default). *)
}

val default_config : config
(** Pure HTM: [stm = Stm_never], [tle = Tle_never]. A machine built with
    this config allocates no STM side table — heap layout is identical to
    pre-hybrid builds. *)

val hybrid_config : config
(** The full degradation lattice: [Stm_after 2] (capacity immediately),
    [stm_attempts = 8], TLE as last resort. *)

type stats = {
  commits : int;  (** hardware commits *)
  aborts_conflict : int;
  aborts_overflow : int;
  aborts_illegal : int;
  aborts_explicit : int;
  aborts_lock : int;
  aborts_spurious : int;
  lock_fallbacks : int;  (** TLE lock acquisitions *)
  max_consecutive_aborts : int;
      (** worst retry chain any single {!atomic} needed before committing *)
  attempts_hw : int;  (** hardware transaction attempts started *)
  attempts_stm : int;  (** software (STM) attempts started *)
  attempts_tle : int;  (** blocks run under the TLE lock *)
  escalations_stm : int;  (** operations that left the hardware path *)
  stm_commits : int;  (** software-path commits (from {!Stm.stats}) *)
  stm_aborts : int;  (** software-path aborts, all reasons *)
  stm_steals : int;  (** STM locks recovered from crashed owners *)
}

type t
(** An HTM domain: a {!Simmem.t} plus configuration, statistics, the TLE
    lock word and (when [stm <> Stm_never]) the {!Stm} side table. *)

val create : ?config:config -> ?metrics:Obs.Metrics.t -> Simmem.t -> t
(** [metrics] chains this domain's registry to a parent aggregate (see
    {!Obs.Metrics.create}); the STM side table, when configured, chains
    its [stm.*] registry to the same parent. Statistics live in that
    registry — the {!stats} record is a snapshot assembled from it, kept
    for per-run delta measurements. *)

val mem : t -> Simmem.t
val config : t -> config

val stm : t -> Stm.t option
(** The software-path domain, present iff [config.stm <> Stm_never]. *)

val metrics : t -> Obs.Metrics.t
(** The domain's registry: [htm.commits] and the [htm.aborts.*] breakdown,
    per-path attempt attribution ([htm.attempts.hw] / [.stm] / [.tle],
    all with per-thread attribution), [htm.fallbacks],
    [htm.escalations.stm], [htm.max_consecutive_aborts], and the
    [htm.commit_cycles] / [htm.stores_per_tx] log2 histograms. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Reset this domain's local metrics, including the STM side table's (a
    parent registry, if chained, keeps its accumulated totals). *)

val commit_cycles_histogram : t -> (int * int) list
(** Log-2 histogram of cycles-to-commit: [(2{^i}, count)] pairs, where a
    completed {!atomic} whose total latency (first attempt through final
    commit, retries, backoff and escalation included) was in
    [\[2{^i}, 2{^i+1})] counts toward bucket [2{^i}]. Empty buckets are
    omitted; counts sum to completed operations across all three paths
    (minus any crash-interrupted after their commit point). The
    escalation tail under faults lives here. *)

type tx
(** An in-flight transaction attempt. Valid only inside the callback of
    {!atomic} that produced it. *)

val atomic : t -> Sim.tctx -> ?on_abort:(abort_reason -> unit) -> (tx -> 'a) -> 'a
(** [atomic h ctx f] runs [f] transactionally, retrying on abort until it
    commits (possibly escalated to the STM path or the TLE lock), and
    returns its result. [on_abort] is called after each aborted attempt
    on {e any} path, before the backoff — the adaptive step-size
    controller hooks in here. Raises {!Retry_exhausted} with the last
    abort reason when a retry budget runs out with no escalation left to
    rescue the operation (hardware [max_attempts], or the STM budget with
    [tle = Tle_never]). Transactions must not nest. *)

val read : tx -> int -> int
(** Transactional load. *)

val write : tx -> int -> int -> unit
(** Transactional store, buffered until commit. *)

val record : tx -> unit
(** Consume one store-buffer slot without touching simulated memory: models
    the store that writes a collected element into the (process-local)
    result set, which is what bounds telescoping step sizes on Rock. On
    the STM path it pays the instrumentation cost but consumes no
    capacity. *)

val abort : tx -> 'a
(** Explicitly abort this attempt; {!atomic} will retry the block. *)

val defer_free : tx -> int -> unit
(** Schedule [Simmem.free] of a block for after a successful commit (the
    paper's algorithms never free inside a transaction); discarded if the
    attempt aborts. *)

val tx_tid : tx -> int
(** The simulated thread running this attempt — lets a data structure keep
    per-thread argument/result slots so one preallocated transaction body
    serves every operation (no per-operation closure). *)

val attempt_number : tx -> int
(** This attempt's number on its path, from 0. Hardware attempts count
    from the first; a block escalated to the STM path counts its
    software attempts from 0 again; under the TLE lock it is the number
    of the hardware attempt at which the block left the hardware path.
    It is the [attempt] the attempt's events carry. *)

val in_fallback : tx -> bool
(** Whether this attempt runs under the TLE lock (non-transactionally).
    [false] on the STM path, which is transactional. *)
