(** Simulated word-addressable shared memory with explicit allocation.

    This is the substitute for the C++/libumem environment of the paper:
    OCaml's garbage-collected heap has no [free], no use-after-free and no
    ABA, so the memory-reclamation problem the paper studies cannot even be
    expressed on it. Here instead:

    - memory is an array of integer {e words}, addressed by integers
      ([0] is the null address and never valid);
    - blocks are allocated with {!malloc} and released with {!free};
      freed blocks go to size-bucketed LIFO free lists and are eagerly
      reused, which makes ABA hazards and use-after-free real;
    - every access checks allocation state: non-transactional access to a
      free word raises {!Fault} (the simulated segfault), while the
      transactional plane reports it to {!Htm} so the transaction can abort
      (Rock-style {e sandboxing});
    - each word carries a version number, bumped by every committed store
      and by [free]/[malloc], which is what transaction validation reads;
    - accesses charge virtual-time costs from a MESI-like cache-line model
      (8-word lines, per-line sharer bitmask): line-local hits are cheap,
      coherence misses expensive. The paper's headline performance effects
      (e.g. hand-over-hand refcounting losing badly because it writes every
      node it traverses) are coherence effects, and this model reproduces
      them.

    Allocation statistics (live and peak words/blocks) support the paper's
    space-usage claims quantitatively. *)

type fault =
  | Use_after_free of int  (** access to a freed word *)
  | Unallocated of int  (** access to a never-allocated word or null *)
  | Double_free of int
  | Invalid_free of int  (** free of an address that is not a block base *)

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit

(** {1 Allocation policy}

    [Shared_lifo] (the default) is the historical allocator: a single
    bump pointer with exact-size LIFO free lists, shared by every thread.
    Its address sequences — and therefore every downstream schedule and
    committed baseline — are unchanged from the seed.

    [Arena placement] shards it: each thread owns an arena that carves
    line-aligned chunks off the global bump pointer and serves its own
    allocations. A free by the owning thread returns the block to the
    arena's per-granule free lists immediately; a free by any other
    thread still takes full effect (state flip, version bumps, fault
    checks) but the block parks on the {e owner's} remote-free ring and
    only becomes reusable when the owner drains it — at its next
    allocation or at any of its fence points. Both drains are pure
    bookkeeping under the virtual clock, so runs stay deterministic.

    The placement policy controls how blocks pack into 8-word cache
    lines (docs/ALLOCATION.md):
    - [Line_packed]: contiguous bump within the chunk; small blocks from
      one arena share lines, maximizing false sharing — the adversarial
      placement from "The Influence of Malloc Placement on TSX Hardware
      Transactional Memory".
    - [Line_isolated]: every block is rounded up to whole lines and
      starts on a line boundary; no two blocks ever share a line.
    - [Cache_index_aware]: line-isolated, plus each thread's chunk
      starts are colored to distinct line-index residues — the
      set-index-aware refinement (on this flat memory it behaves like
      [Line_isolated] with spread chunk origins). *)

type placement = Line_packed | Line_isolated | Cache_index_aware
type alloc_policy = Shared_lifo | Arena of placement

val placement_label : placement -> string
val alloc_label : alloc_policy -> string
(** Stable labels for artifacts/CLI: ["shared-lifo"], ["arena/line-packed"],
    ["arena/line-isolated"], ["arena/cache-index-aware"]. *)

type t

type stats = {
  live_words : int;
  live_blocks : int;
  peak_live_words : int;
  peak_live_blocks : int;
  total_allocs : int;
  total_frees : int;
  heap_extent : int;
      (** total high-water mark of the heap in words: the global bump
          pointer, which under an [Arena _] policy covers every chunk any
          arena carved (plus alignment gaps) *)
  arena_extents : (int * int) list;
      (** per-arena [(tid, words carved)] in tid order; [[]] under
          [Shared_lifo]. The carved words sum to [heap_extent - 8]. *)
  remote_frees : int;  (** blocks ever freed by a non-owning thread *)
  remote_pending : int;  (** remote frees not yet drained by their owner *)
  reads : int;  (** loads issued (all access planes) *)
  read_misses : int;  (** loads that required a coherence transfer *)
  writes : int;  (** stores issued *)
  write_misses : int;  (** stores that invalidated other copies *)
  atomics : int;  (** CAS and fetch-add operations *)
}

val create :
  ?model:Sim.Memmodel.t ->
  ?metrics:Obs.Metrics.t ->
  ?threads:int ->
  ?initial_words:int ->
  ?alloc:alloc_policy ->
  unit ->
  t
(** [metrics] chains this heap's metrics registry to a parent (e.g. the
    benchmark harness's fleet-wide aggregate); without it the heap still
    keeps a private registry, which is what {!stats} reads.

    [threads] sets the heap's thread capacity, [max 61 threads]: it
    tracks runnable thread ids below it, plus boot contexts. Every
    per-thread table has one slot per tracked id and one for the boot
    contexts — the per-line sharer sets, the store buffers (built only
    under a buffered [model]), the arenas (only under an [Arena _]
    policy) and {!Htm}'s transaction descriptors. The default covers
    every paper-scale run in one sharer word per line; scaled experiments
    pass the simulated thread count and pay one extra word per line per
    further 62 threads. Under an [Arena _] policy [threads] also sizes
    the default heap (below). An access by a runnable tid at or beyond
    the capacity raises [Invalid_argument].

    [initial_words] preallocates the heap arrays; the heap still grows
    on demand beyond it, and addresses never depend on it. The default
    is what the run is expected to use: 256 words under [Shared_lifo];
    under [Arena _] room for one first chunk (512 words, plus the
    coloring gap under [Cache_index_aware]) per thread and one for the
    boot context, above the reserved first line — [threads + 1] chunks,
    or two without [threads]. Million-word experiments reserve up front
    so growth never lands mid-measurement.

    [model] selects the memory-consistency variant (default
    {!Sim.Memmodel.sc}, the pre-weak-memory behavior). Under a buffered
    model every plain {!write} enters the issuing thread's FIFO store
    buffer and becomes globally visible only at a drain point — a
    {!Sim.fence}, an atomic ({!cas} / {!fetch_add}), {!malloc} / {!free},
    capacity overflow, or thread termination. Coherence costs, counters,
    version bumps and the access event all fire at drain time, making each
    drained store a scheduler-visible step. See docs/MEMORY_ORDERING.md.

    [alloc] selects the allocation policy (default {!Shared_lifo}, the
    historical allocator — byte-identical to the seed). *)

val stats : t -> stats

val metrics : t -> Obs.Metrics.t
(** The heap's registry: [mem.reads], [mem.read_misses], [mem.writes],
    [mem.write_misses], [mem.atomics], [mem.allocs], [mem.frees] counters
    (access counters carry per-thread breakdowns), [mem.live_words] /
    [mem.live_blocks] gauges (high-water mark = peak), and the
    [mem.queue_wait] histogram of cycles spent queued behind another
    in-flight transfer of the same line. *)

val model : t -> Sim.Memmodel.t
(** The memory-consistency variant this heap was created with. *)

val alloc : t -> alloc_policy
(** The allocation policy this heap was created with. *)

val slots : t -> int
(** The length of a per-thread table over this heap: its thread capacity
    plus one slot for the boot contexts (see {!create}). Host-side tables
    of the structures built on the heap are sized by it, not by
    {!Sim.max_threads}. *)

val slot : t -> int -> int
(** [slot t tid] is [tid]'s index in such a table: a runnable tid maps to
    itself and every boot context to the last slot. A runnable tid at or
    beyond the capacity raises [Invalid_argument], as its accesses do. *)

(** {1 Line-granularity conflict plane}

    Besides per-word versions, every committed store bumps a per-line
    version and records the bumping thread. Real HTMs track conflicts at
    cache-line granularity; {!Htm} validates against this plane when its
    config opts in, which is what makes placement-induced false sharing
    abort transactions. Maintenance is unconditional and costs zero
    virtual cycles. *)

val line_of : int -> int
(** The cache-line index covering an address (8-word lines). *)

val line_version : t -> int -> int
(** Current version of a line, by line index (no cost, no yield).
    @raise Invalid_argument if the line starts at or past the heap
    extent. *)

val line_writer : t -> int -> int
(** Tid whose committed store last bumped this line's version, [-1] if
    never bumped (no cost, no yield). Lets a validator absorb its own
    bumps instead of self-aborting.
    @raise Invalid_argument if the line starts at or past the heap
    extent. *)

val label : t -> name:string -> base:int -> words:int -> unit
(** Region-label an address range for contention attribution (a [Label]
    event; no-op when no sink is attached). Data-structure
    implementations call this at allocation sites: ["ListHoHRC.header"],
    ["MSQueue+ROP.node"], ... *)

(** {1 Conflict forensics}

    A {e witness} captures who doomed a transaction (or a CAS) at the
    coherence plane: the victim, the aggressor whose committed store
    invalidated it, the address they collided on and the access kinds.
    Aggressors are resolved from a per-word {e last-writer journal}
    (thread, clock, store kind at the word's most recent version bump),
    kept while a sink that asks for it is attached (see {!attach}).

    All of it is observation only — zero virtual cycles, no RNG, no
    scheduling impact — so instrumented runs are cycle-identical to bare
    ones. *)

type writer_op = Op_store | Op_atomic | Op_commit | Op_malloc | Op_free

val last_writer : t -> int -> (int * int * writer_op) option
(** [(tid, clock, op)] of the committed store that last bumped this
    word's version; [None] if the journal is off or the word was never
    written since it came on. *)

(** A completed access, including the transactional plane's reads and
    committed stores. *)
type access =
  | Read of { addr : int; value : int }
  | Write of { addr : int; value : int }
  | Cas of { addr : int; expected : int; desired : int; success : bool }
  | Fetch_add of { addr : int; delta : int; old : int }
  | Malloc of { base : int; words : int }
  | Free of { base : int; words : int }

val pp_access : Format.formatter -> access -> unit

(** {1 Transactions: vocabulary}

    What {!Htm} and {!Stm} share (with {!Tx_desc}). The hardware path
    and the software slow path differ only in how they detect conflicts
    and commit: they abort for the same reasons, emit the same events and
    run on the same descriptor, so an escalated block keeps its state and
    neither layer translates the other's. *)

module Txn : sig
  type abort_reason =
    | Conflict  (** read-set validation failed, or a stale (post-[rv]) read *)
    | Overflow  (** store-buffer capacity exceeded (hardware only) *)
    | Illegal  (** transactional access to freed or unmapped memory *)
    | Explicit  (** the block aborted itself *)
    | Lock_held  (** a TLE lock holder or a live STM stripe owner was observed *)
    | Spurious
        (** environmental abort injected by the fault plan — interrupts,
            TLB misses, register-window spills: Rock's catalogue of aborts
            that have nothing to do with the data accessed ({!Sim.Fault};
            hardware only) *)

  val abort_label : abort_reason -> string
  val pp_abort_reason : Format.formatter -> abort_reason -> unit

  exception Aborted of abort_reason
  (** Internal control flow of an attempt, on either path. *)

  val abort_with : abort_reason -> 'a
  (** Raise {!Aborted}; the exception values are built once, so an abort
      allocates nothing. *)

  exception Retry_exhausted of abort_reason
  (** A retry budget ran out with no escalation left; carries the last
      abort reason. *)

  (** Which of the three execution paths an attempt or event is on. *)
  type tx_path = P_hw | P_stm | P_tle

  val path_label : tx_path -> string

  (** One transaction event, tagged with its path. Commits carry their
      read/write-set sizes and aborts their reason and conflict witness,
      so per-path histograms and explorer counterexamples can be built
      from the stream alone; the start clocks, the TLE attempt numbers
      and the stolen-lock count are what the Perfetto rendering
      ({!tracer_sink}) needs. *)
  type tx_event =
    | Tx_commit of {
        tx_reads : int;  (** distinct addresses read *)
        tx_writes : int;
        tx_path : tx_path;
        tx_attempt : int;
        tx_start : int;  (** the attempt's start clock *)
      }
    | Tx_abort of {
        ab_reason : abort_reason;
        ab_path : tx_path;
        ab_attempt : int;
        ab_witness : Obs.Forensics.witness option;
            (** captured at the failing validation or lock probe, or
                synthesized against the TLE lock word for a lock-held
                hardware abort *)
        ab_start : int;  (** the attempt's start clock *)
      }
    | Tx_fallback of { fb_attempt : int }  (** TLE lock acquired *)
    | Tx_release of { rl_attempt : int; rl_start : int }
        (** TLE lock released, on every exit from the critical section;
            [rl_start] is the clock it was acquired at *)
    | Tx_steal of { st_victim : int; st_locks : int }
        (** [st_locks] STM stripe locks were stolen from (crashed) thread
            [st_victim] *)

  val pp_tx_event : Format.formatter -> tx_event -> unit
end

(** {1 Observers}

    A machine has one event stream and one attach point. Every observer
    is a {e sink}: a fold from one event, stamped with the acting thread
    and its clock, to the observer's own state — the three below and
    [Explore.Trace.sink]. Emission charges zero virtual cycles and draws
    no RNG, so an observed run is cycle-identical to a bare one. *)

type event =
  | Access of access
      (** after the access; loads, stores and atomics only to sinks that
          take [accesses], [Malloc] and [Free] to every sink *)
  | Miss of { write : bool; addr : int; line : int; sharers : int; cost : int; wait : int }
      (** one coherence transfer, before its cost is charged: the
          sharer count at request time and the cycles spent queued
          behind earlier transfers of the line ([wait], part of [cost]) *)
  | Label of { name : string; base : int; words : int }
      (** a {!label}; stamped with tid [-1] and clock [0] *)
  | Witness of Obs.Forensics.witness
      (** a conflict witness, at the abort or failed CAS it explains *)
  | Hop of {
      from_path : Txn.tx_path;
      to_path : Txn.tx_path;
      reason : Txn.abort_reason;
      witness : Obs.Forensics.witness option;
      attempt : int;  (** hardware attempts made before leaving *)
    }
      (** one escalation step (HW → STM → TLE), with the reason and
          witness of the last abort on [from_path] *)
  | Tx of Txn.tx_event
  | Sched of Sim.event  (** a scheduler slice or fault, through {!observer} *)

type sink = {
  fold : tid:int -> clock:int -> event -> unit;
      (** must not access the heap reentrantly *)
  accesses : bool;  (** also take every load, store and atomic *)
  journal : bool;
      (** keep the last-writer journal, so witnesses name their
          aggressors *)
}

val attach : t -> sink list -> unit
(** Replace the heap's observers; every event goes to each sink in list
    order. Unless some sink takes [accesses] or the [journal], an access
    pays one predictable branch; with [[]] nothing is observed. *)

val observed : t -> bool
(** Whether any sink is attached. Emitters check it before building an
    event that allocates. *)

val emit : t -> Sim.tctx -> event -> unit
(** Deliver an event, stamped with the acting thread and its clock, to
    the attached sinks ({!Htm} and {!Stm} report their lifecycle here). *)

val observer : t -> Sim.observer option
(** [Sim.run]'s [?observe] for this heap: scheduler events go to the
    attached sinks as {!Sched}. [None] when no sink is attached. *)

val tracer_sink : Obs.Tracer.sink -> sink
(** Perfetto rendering: [run] spans, [fault.*] and [miss.read] /
    [miss.write] instants, [conflict] flow arrows for witnesses whose
    aggressor is known, and the transaction lifecycle — [tx] and
    [tx.attempt] spans with [tx.abort] on the hardware path, [tx.stm] /
    [tx.stm.abort] on the software path, [tle.fallback] and the
    [tx.locked] span for the TLE lock, [stm.escalate] and [stm.steal]. *)

val profiler_sink : Obs.Profiler.t -> sink
(** Every coherence transfer and region label into a contention
    profiler. *)

val forensics_sink : Obs.Forensics.t -> sink
(** Witnesses, escalation hops, labels and allocation provenance into a
    forensics aggregator; keeps the journal. *)

val null : int
(** The null address, [0]. *)

val malloc : t -> Sim.tctx -> int -> int
(** [malloc t ctx n] allocates a block of [n >= 1] words, zeroed, and
    returns its base address. Reuses a freed block of the same size when one
    exists (LIFO). *)

val free : t -> Sim.tctx -> int -> unit
(** Release a block by its base address.
    @raise Fault on double free or non-base address. *)

val block_size : t -> int -> int option
(** [block_size t addr] is the size of the live block based at [addr]. *)

val is_allocated : t -> int -> bool
(** Whether the word at this address belongs to a live block. *)

val read : t -> Sim.tctx -> int -> int
(** Non-transactional load. @raise Fault if the word is not allocated. *)

val write : t -> Sim.tctx -> int -> int -> unit
(** Non-transactional store; bumps the word version (strong atomicity:
    it dooms any transaction that has read the word). Under a buffered
    {!Sim.Memmodel} the store enters the thread's FIFO buffer instead and
    only becomes visible (version bump, coherence traffic, access event) when
    it drains; an in-fiber drain whose target word has meanwhile been
    freed raises the fault at drain time — the delayed-visibility
    use-after-free that fence disciplines exist to prevent.
    @raise Fault if the word is not allocated. *)

val fenced_write : t -> Sim.tctx -> int -> int -> unit
(** Store with release semantics: drains the thread's buffer first, then
    writes through directly (never buffered). Under [sc] this is exactly
    {!write}. The TLE lock release uses it — every critical-section store
    must be visible before the lock word clears. *)

val cas : t -> Sim.tctx -> int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap; bumps the version only on success. Atomics
    are implicit full fences: the thread's store buffer drains first.
    While the last-writer journal is on, a {e failed} CAS emits a
    conflict witness (site ["mem.cas"]) against the word's last writer —
    how non-transactional lock-free structures surface their contention. *)

val fetch_add : t -> Sim.tctx -> int -> int -> int
(** [fetch_add t ctx addr d] atomically adds [d], returning the old value.
    An implicit full fence, like {!cas}. *)

val drain : t -> Sim.tctx -> unit
(** Flush this thread's store buffer (in-fiber: each drained store is a
    scheduling point and may fault). No-op under an unbuffered model,
    for boot contexts, or when the buffer is empty. The transaction
    layers call this at transaction begin so tx reads never miss the
    thread's own pre-tx stores. *)

val pending_stores : t -> Sim.tctx -> int
(** Number of stores currently sitting in this thread's buffer (0 under
    an unbuffered model and for boot contexts). Test/debug introspection;
    free. *)

val version : t -> int -> int
(** Current version of a word (no cost, no yield).
    @raise Invalid_argument outside the heap extent, like {!peek}. *)

val peek : t -> int -> int
(** Debug/test read: no cost, no yield, no allocation check (but must be
    within the heap extent). *)

(** Access plane for the HTM implementation. Algorithms never use this
    directly; {!Htm} does. *)
module Tx_plane : sig
  val read_ver : t -> Sim.tctx -> int -> int
  (** The unboxed transactional load: pays the normal load cost and
      yields; returns the word's version ([>= 0]) with the value readable
      via {!read_value}, or [-1] if the word is not allocated (the
      transaction must abort: this is the sandboxing behaviour). *)

  val read_value : t -> int
  (** The value parked by the last successful {!read_ver} on this heap.
      Only meaningful immediately after it, before any other access. *)

  val commit_write : t -> Sim.tctx -> int -> int -> bool
  (** Apply one committed store: pays the store cost {e without yielding}
      (commit is atomic in virtual time), writes, bumps the version.
      Returns [false] if the word is no longer allocated. *)
end

(** {1 Transactional read sets} *)

type granularity = Word | Line
(** Which version plane a read set validates against: per-word versions,
    or the covering cache line's (see {!line_version}). *)

module Read_set : sig
  (** The read set shared by the transaction layers ({!Htm}, {!Stm}): one
      entry per transactional read of the current attempt, each with the
      version its address had when read. Reusable across attempts via
      {!reset}; allocates nothing in steady state.

      Entries are not de-duplicated: a re-read appends a second entry, as
      re-marking a line costs a hardware read set nothing. Duplicates
      cannot change {!validate} or {!first_invalid}. Versions only grow,
      so a re-read's entry comes after its address's first entry and
      notes a version at least as new; whenever any entry for an address
      is stale, its first entry is stale too. {!distinct} gives the count
      of addresses for the consumers that charge or report by it.

      Both hot operations are O(1) in the set's size when nothing
      changed: {!note} appends, and {!validate} returns at once when no
      version on the heap has been bumped since its last successful full
      check. The shortcut never changes a result — only scans whose
      outcome is already known are skipped. *)

  type heap := t
  type t

  val create : heap -> granularity -> t

  val reset : t -> unit
  (** Empty the set for a new attempt. *)

  val note : t -> int -> unit
  (** [note rs addr] appends [addr] with its current version (word or
      line, per the granularity). Call it right after the transactional
      load of [addr], before anything can yield, so the noted version is
      the one the value was read at. *)

  val length : t -> int
  (** Entries noted since the last {!reset}: one per read, re-reads
      included. *)

  val addr : t -> int -> int
  (** [addr rs i] is the [i]-th entry's address, [0 <= i < length rs], in
      read order. *)

  val distinct : t -> int
  (** Distinct addresses noted since the last {!reset}. O(entries) through
      a hash index built on the first call that needs one. *)

  val validate : t -> bool
  (** True iff every entry's version is still the noted one. *)

  val first_invalid : t -> int
  (** The first address, in first-read order, whose version moved, or
      [-1]. Always a full scan: meant for abort paths (conflict
      witnesses). *)
end

(** {1 Transaction descriptor}

    The state of one transaction attempt, on any path. ['o] is the
    owning domain ({!Htm.t}), so a transaction handle alone reaches its
    configuration. {!Htm} and {!Stm} read and write the fields directly;
    nothing else should. *)
module Tx_desc : sig
  type heap := t

  type 'o t = {
    owner : 'o;
    mem : heap;
    gran : granularity;  (** the hardware path's read-set granularity *)
    mutable ctx : Sim.tctx;
    mutable busy : bool;  (** bound to a running [atomic] *)
    mutable path : Txn.tx_path;
    mutable attempt : int;  (** this attempt's number on its path *)
    mutable start : int;  (** this attempt's start clock *)
    mutable rv : int;  (** software path: the TL2 read version *)
    reads : Read_set.t;
    mutable waddr : int array;  (** write buffer, oldest first *)
    mutable wval : int array;
    mutable nwrites : int;
    mutable nstores : int;  (** hardware path: store-buffer slots used *)
    mutable frees : int array;  (** blocks to free after commit *)
    mutable nfrees : int;
    mutable witness : Obs.Forensics.witness option;
        (** set where the conflict that will abort this attempt is found *)
    mutable last_witness : Obs.Forensics.witness option;
        (** the latest abort's witness in this [atomic], for the
            escalation hop it drives *)
  }

  val pool : heap -> 'o t option array
  (** An empty descriptor pool with one slot per thread the heap tracks
      (its capacity, plus one for boot contexts; see {!create}). *)

  val acquire : 'o t option array -> 'o -> heap -> granularity -> Sim.tctx -> 'o t
  (** [acquire pool owner mem gran ctx]: the thread's pooled descriptor
      (created on first use in the thread's slot of a {!pool} built for
      [mem]), marked busy — or a fresh one under a nested [atomic]. *)

  val reset : 'o t -> Txn.tx_path -> int -> unit
  (** Start attempt [n] on a path at the current clock: empty the read,
      write and free sets and clear the witness. The read set checks word versions on the
      software path and [gran] otherwise. *)

  val find_write : 'o t -> int -> int
  (** Index of the newest buffered write to the address, or [-1]. *)

  val buffer_write : 'o t -> int -> int -> unit

  val first_freed_write : 'o t -> int
  (** The oldest buffered write whose target is no longer allocated, or
      [-1]. *)

  val write_back : 'o t -> unit
  (** Apply the write buffer, oldest first, through {!Tx_plane}: a
      commit point's write-back, which never yields. *)

  val defer_free : 'o t -> int -> unit

  val run_frees : 'o t -> unit
  (** Free the deferred blocks (after a commit). *)

  val set_witness :
    'o t ->
    ?lookup:int ->
    ?aggressor:int ->
    addr:int ->
    victim_wrote:bool ->
    in_read_set:bool ->
    in_write_set:bool ->
    string ->
    unit
  (** Capture the attempt's conflict witness at a site. The aggressor
      comes from the last-writer journal of [lookup] (default [addr]) —
      pass the stripe-lock word to attribute an STM conflict to the last
      committer of that stripe. [aggressor] overrides the journal's
      thread when the caller knows the owner exactly. *)

  val witness_invalid_read : 'o t -> string -> bool
  (** Capture a witness on the first read whose version moved, if any
      (a full scan: abort paths only). *)

  val emit_commit : 'o t -> unit
  (** Report the attempt's commit ([Tx_commit] with its path, number,
      start clock and read/write-set sizes) to the heap's sinks. *)

  (** {2 The attempt loop}

      The one retry protocol of both transaction paths. A path is a
      record of hooks and counters, built once per domain. *)

  type 'o path = {
    tag : Txn.tx_path;
    begin_cost : int;  (** per attempt, plus 0–15 cycles of jitter *)
    abort_cost : int;  (** per abort, before the backoff *)
    start : 'o t -> unit;  (** before the block, inside the attempt *)
    commit : 'o t -> unit;  (** validate and write back, or abort *)
    stop : 'o t -> int -> Txn.abort_reason -> bool;
        (** [stop d n last]: give up before attempt [n]; [last] is the
            previous abort's reason ([Conflict] before attempt 0) *)
    attempts : Obs.Metrics.counter;
    commits : Obs.Metrics.counter;
    aborts : Obs.Metrics.counter array;  (** by reason: {!abort_counters} *)
    sizes : Obs.Metrics.hist;  (** store-buffer slots on [P_hw], else writes *)
    cycles : Obs.Metrics.hist option;  (** since {!run} began, before the frees *)
    overflow_escalates : bool;  (** no backoff after an [Overflow] *)
  }

  val abort_counters :
    Obs.Metrics.t -> (Txn.abort_reason * string) list -> Obs.Metrics.counter array
  (** Per-thread abort counters indexed by reason, registered in the
      list's order; reasons it omits share a counter no registry holds. *)

  val aborts : Obs.Metrics.counter array -> Txn.abort_reason -> int

  val backoff : Sim.tctx -> int -> unit
  (** A randomized delay before retry [n + 1]: {!Sim.Backoff.delay} with
      base 60 and cap 16384 cycles. *)

  val run : 'o path -> 'o t -> ('o t -> 'a) -> (Txn.abort_reason -> unit) -> 'a
  (** [run p d f on_abort] runs attempts [0, 1, ...] of [f d] on [p] until
      one commits. Each ticks the begin cost, drains the store buffer,
      {!reset}s [d] and runs [start], [f] and [commit]. A commit counts,
      reports [Tx_commit], runs the frees and notes progress; an abort
      counts, reports [Tx_abort], ticks the abort cost, calls [on_abort]
      and backs off. When [stop] holds before attempt [n], it sets
      [d.attempt] to [n] and raises {!Txn.Retry_exhausted} with the last
      reason, allocating nothing. *)
end
