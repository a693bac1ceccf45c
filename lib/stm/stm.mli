(** TL2-style software transactional memory over {!Simmem}.

    The unbounded slow path beside {!Htm}'s simulated Rock: where the
    hardware path dies at 32 stores ([Overflow]) or under environmental
    aborts, this layer commits transactions of any size in software —
    at the classic STM price of per-access instrumentation (every
    transactional load also reads a lock-table word) and commit-time
    validation. The escalation policy in {!Htm} routes transactions here
    when the hardware gives up, so the machine degrades to instrumented
    parallelism instead of a single global lock.

    The design is TL2 (Dice, Shalev, Shavit 2006) adapted to the
    simulator's versioned words:

    - a {b global version clock} word in simulated memory. Two schemes:
      [Gv1] advances it with a fetch-and-add on every writing commit
      (precise, but every commit contends one cache line), [Gv5] reads it
      plainly at commit ([wv = clock + 1]) and lets {e aborting readers}
      advance it — no commit-time atomic, at the cost of one extra abort
      per thread per clock value when reads hit fresh data;
    - a {b striped write-lock table}: [lock_slots] words in simulated
      memory, one per address stripe. A lock word encodes
      [version lsl 7 lor (owner_tid + 1)] — the low 7 bits carry the
      owner's thread id so a crashed holder is identifiable and the lock
      {b stealable}: contenders watch the owner's heartbeat word and
      revert the lock word once it stays silent for [steal_timeout]
      cycles. A falsely stolen (live) owner re-verifies ownership at its
      commit point and aborts harmlessly — stealing is always safe, the
      timeout only tunes how long a dead owner can stall a stripe;
    - {b speculative reads} with full read-set revalidation on every
      access (opacity: a doomed transaction never acts on an inconsistent
      snapshot), version-stamped against {!Simmem}'s own word versions —
      so conflicts with hardware transactions, TLE sections and plain
      stores are all detected without those paths knowing the STM exists;
    - {b commit-time write-back}: acquire the write set's lock stripes,
      validate the read set, take a write version, then re-verify
      ownership + revalidate + write back + release {e atomically in
      virtual time} ([Sim.charge] only). A thread killed between lock
      acquisition and write-back — the registered ["stm.commit"]
      {!Sim.fault_point} — leaves locks that survivors steal; it can
      never leave a half-applied write set.

    Transactions must not nest, and blocks must be re-executable from
    scratch (aborts re-run the block), exactly as with {!Htm.atomic}. *)

(** Global-version-clock advancement scheme. *)
type clock_scheme =
  | Gv1  (** fetch-and-add per writing commit: precise, contended *)
  | Gv5
      (** plain read at commit, aborting readers advance the clock:
          contention-free commits, occasional false aborts *)

type config = {
  clock_scheme : clock_scheme;
  lock_slots : int;  (** stripes in the write-lock table; power of two *)
  start_cost : int;  (** per-attempt setup on top of the clock-word read *)
  read_cost : int;  (** per-load instrumentation (the lock-word probe is
                        additionally paid as a real memory access) *)
  write_cost : int;  (** per-buffered-store instrumentation *)
  validate_cost : int;  (** commit-time validation, per read-set entry *)
  commit_cost : int;
  abort_cost : int;
  backoff_base : int;
  backoff_max : int;
  steal_timeout : int;
      (** cycles a held lock's owner heartbeat must stay silent before a
          contender steals the lock. A liveness/throughput knob only:
          stealing from a live owner is safe (it re-verifies ownership at
          its commit point), so this need only exceed the longest
          legitimate lock-hold phase to avoid gratuitous owner aborts. *)
}

val default_config : config

type stats = {
  commits : int;
  aborts_conflict : int;
  aborts_locked : int;
  aborts_illegal : int;
  aborts_explicit : int;
  attempts : int;  (** transaction attempts started (commits + aborts) *)
  steals : int;  (** locks recovered from silent (crashed) owners *)
  clock_bumps : int;  (** Gv5 reader-side clock advances *)
}

type t
(** An STM domain over one {!Simmem.t}: clock word, lock table, heartbeat
    words, metrics. *)

val create : ?config:config -> ?metrics:Obs.Metrics.t -> fence:int -> Simmem.t -> t
(** Allocates the clock, lock-table and heartbeat words in the heap (each
    region cache-line-separated and {!Simmem.label}ed). [metrics] chains
    the [stm.*] registry to a parent aggregate, mirroring {!Htm.create}:
    [stm.commits], the [stm.aborts.*] breakdown, [stm.attempts] (all
    per-thread), [stm.steals], [stm.clock_bumps], and the
    [stm.commit_cycles] / [stm.writes_per_tx] histograms. [fence] is the
    address of a global-lock word (the TLE lock) that must be observed
    unheld at every commit point, so an STM commit never lands inside a
    TLE critical section. *)

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Transactions}

    A software attempt runs on the caller's {!Simmem.Tx_desc.t} descriptor:
    its read set, write buffer, free list and witness slot are the ones
    the hardware path uses. {!Htm} escalates a block here by handing over
    the descriptor it was running on. *)

val atomic :
  t ->
  'o Simmem.Tx_desc.t ->
  budget:int ->
  attempts:Obs.Metrics.counter ->
  on_abort:(Simmem.Txn.abort_reason -> unit) ->
  ('o Simmem.Tx_desc.t -> 'a) ->
  'a
(** [atomic s d ~budget ~attempts ~on_abort f] runs [f d] as a software
    transaction, retrying with randomized exponential backoff until it
    commits. Attempts are numbered from 0 in [d.attempt]. Each attempt
    also bumps the caller's per-thread [attempts] counter; [on_abort]
    runs after each abort, before the backoff. After [budget] aborted
    attempts ([0] = no limit) it raises {!Simmem.Txn.Retry_exhausted}
    with the last reason, leaving that abort's witness in
    [d.last_witness]. *)

val read : t -> 'o Simmem.Tx_desc.t -> int -> int
(** Transactional load: lock-word probe, value fetch, read-set note, full
    revalidation. Aborts with [Conflict] on a post-[rv] version or a
    moved read, with [Lock_held] on a stripe held by another owner, and
    with [Illegal] on freed memory (the software analogue of the hardware
    sandbox: TL2 validation makes the freed read harmless). *)

val write : t -> 'o Simmem.Tx_desc.t -> int -> int -> unit
(** Transactional store, buffered until commit. No capacity bound. *)

val record : t -> 'o Simmem.Tx_desc.t -> unit
(** Account one process-local result-set store ({!Htm.record}'s contract);
    pays the instrumentation cost, consumes no capacity. *)
