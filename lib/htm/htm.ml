module Adapt = Adapt

include Simmem.Txn
open Simmem.Tx_desc

type tle_mode = Tle_never | Tle_after of int
type stm_mode = Stm_never | Stm_after of int

(* Conflict-detection granularity of the hardware path. [Word] is the
   historical idealized detector (per-word versions — no false sharing,
   and what every committed baseline was generated under). [Line]
   validates the read set against {!Simmem}'s per-line versions, the way
   real HTMs (Rock, TSX) snoop whole cache lines: any committed store to
   a line the transaction read dooms it, including stores to *other
   words* of that line — the false-sharing abort channel the placement
   ablation measures. *)
type granularity = Simmem.granularity = Word | Line

type config = {
  store_buffer : int;
  tx_begin_cost : int;
  tx_commit_cost : int;
  tx_store_cost : int;
  tx_abort_cost : int;
  backoff_base : int;
  backoff_max : int;
  sandboxed : bool;
  granularity : granularity;
  tle : tle_mode;
  stm : stm_mode;
  stm_attempts : int;
  stm_config : Stm.config;
  max_attempts : int;
}

let default_config =
  {
    store_buffer = 32;
    tx_begin_cost = 25;
    tx_commit_cost = 35;
    (* Store-buffer insertion is pipelined and effectively free on Rock;
       the cost here models the per-element loop work of a telescoped scan;
       the 32-entry capacity is the constraint that matters for sizing. *)
    tx_store_cost = 0;
    tx_abort_cost = 100;
    backoff_base = 60;
    backoff_max = 16384;
    sandboxed = true;
    granularity = Word;
    tle = Tle_never;
    stm = Stm_never;
    stm_attempts = 0;
    stm_config = Stm.default_config;
    max_attempts = 0;
  }

let hybrid_config =
  {
    default_config with
    stm = Stm_after 2;
    stm_attempts = 8;
    (* With an STM policy installed the TLE count is ignored: the lock is
       reachable only through STM budget exhaustion, so [Tle_after 0] just
       means "last resort enabled". *)
    tle = Tle_after 0;
  }

type stats = {
  commits : int;
  aborts_conflict : int;
  aborts_overflow : int;
  aborts_illegal : int;
  aborts_explicit : int;
  aborts_lock : int;
  aborts_spurious : int;
  lock_fallbacks : int;
  max_consecutive_aborts : int;
  attempts_hw : int;
  attempts_stm : int;
  attempts_tle : int;
  escalations_stm : int;
  stm_commits : int;
  stm_aborts : int;
  stm_steals : int;
}

(* Stats live in the metrics registry. The [stats] record type survives as
   a read-only snapshot assembled from the handles, so per-run consumers
   ([Workload] measures deltas by [reset_stats] between phases) keep exact
   local numbers while a parent registry accumulates fleet-wide totals. *)
type t = {
  hmem : Simmem.t;
  cfg : config;
  (* Pooled per-thread transaction descriptors ({!Simmem.Tx_desc.acquire}). *)
  pool : tx option array;
  mreg : Obs.Metrics.t;
  c_commits : Obs.Metrics.counter;
  c_conflict : Obs.Metrics.counter;
  c_overflow : Obs.Metrics.counter;
  c_illegal : Obs.Metrics.counter;
  c_explicit : Obs.Metrics.counter;
  c_lock : Obs.Metrics.counter;
  c_spurious : Obs.Metrics.counter;
  c_fallbacks : Obs.Metrics.counter;
  c_cycles : Obs.Metrics.counter;
  c_att_hw : Obs.Metrics.counter;
  c_att_stm : Obs.Metrics.counter;
  c_att_tle : Obs.Metrics.counter;
  c_esc_stm : Obs.Metrics.counter;
  g_consec : Obs.Metrics.gauge;
  h_commit : Obs.Metrics.hist;
  h_stores : Obs.Metrics.hist;
  lock_addr : int;
  stm : Stm.t option;
}

and tx = t Simmem.Tx_desc.t

let create ?(config = default_config) ?metrics mem =
  (* The TLE lock gets its own cache line so lock traffic does not
     false-share with application data. *)
  let boot = Sim.boot () in
  let lock_addr = Simmem.malloc mem boot 8 in
  Simmem.label mem ~name:"Htm.tle_lock" ~base:lock_addr ~words:8;
  (* The STM side table is only allocated when a policy can reach it, so
     default-configured machines keep their exact heap layout (and hence
     their committed benchmark baselines) bit-for-bit. *)
  let stm =
    match config.stm with
    | Stm_never -> None
    | Stm_after _ ->
      Some (Stm.create ~config:config.stm_config ?metrics ~fence:lock_addr mem)
  in
  let mreg = Obs.Metrics.create ?parent:metrics () in
  {
    hmem = mem;
    cfg = config;
    pool = Simmem.Tx_desc.pool mem;
    mreg;
    c_commits = Obs.Metrics.counter ~per_thread:true mreg "htm.commits";
    c_conflict = Obs.Metrics.counter ~per_thread:true mreg "htm.aborts.conflict";
    c_overflow = Obs.Metrics.counter ~per_thread:true mreg "htm.aborts.overflow";
    c_illegal = Obs.Metrics.counter ~per_thread:true mreg "htm.aborts.illegal";
    c_explicit = Obs.Metrics.counter ~per_thread:true mreg "htm.aborts.explicit";
    c_lock = Obs.Metrics.counter ~per_thread:true mreg "htm.aborts.lock_held";
    c_spurious = Obs.Metrics.counter ~per_thread:true mreg "htm.aborts.spurious";
    c_fallbacks = Obs.Metrics.counter mreg "htm.fallbacks";
    c_cycles = Obs.Metrics.counter mreg "htm.commit_cycles_total";
    c_att_hw = Obs.Metrics.counter ~per_thread:true mreg "htm.attempts.hw";
    c_att_stm = Obs.Metrics.counter ~per_thread:true mreg "htm.attempts.stm";
    c_att_tle = Obs.Metrics.counter ~per_thread:true mreg "htm.attempts.tle";
    c_esc_stm = Obs.Metrics.counter mreg "htm.escalations.stm";
    g_consec = Obs.Metrics.gauge mreg "htm.max_consecutive_aborts";
    h_commit = Obs.Metrics.hist mreg "htm.commit_cycles";
    h_stores = Obs.Metrics.hist mreg "htm.stores_per_tx";
    lock_addr;
    stm;
  }

let mem t = t.hmem
let config t = t.cfg
let metrics t = t.mreg
let stm t = t.stm

let stats t =
  let s_stats = Option.map Stm.stats t.stm in
  {
    commits = Obs.Metrics.value t.c_commits;
    aborts_conflict = Obs.Metrics.value t.c_conflict;
    aborts_overflow = Obs.Metrics.value t.c_overflow;
    aborts_illegal = Obs.Metrics.value t.c_illegal;
    aborts_explicit = Obs.Metrics.value t.c_explicit;
    aborts_lock = Obs.Metrics.value t.c_lock;
    aborts_spurious = Obs.Metrics.value t.c_spurious;
    lock_fallbacks = Obs.Metrics.value t.c_fallbacks;
    max_consecutive_aborts = Obs.Metrics.gauge_max t.g_consec;
    attempts_hw = Obs.Metrics.value t.c_att_hw;
    attempts_stm = Obs.Metrics.value t.c_att_stm;
    attempts_tle = Obs.Metrics.value t.c_att_tle;
    escalations_stm = Obs.Metrics.value t.c_esc_stm;
    stm_commits = (match s_stats with None -> 0 | Some s -> s.Stm.commits);
    stm_aborts =
      (match s_stats with
       | None -> 0
       | Some s ->
         s.Stm.aborts_conflict + s.Stm.aborts_locked + s.Stm.aborts_illegal
         + s.Stm.aborts_explicit);
    stm_steals = (match s_stats with None -> 0 | Some s -> s.Stm.steals);
  }

let reset_stats t =
  Obs.Metrics.reset t.mreg;
  Option.iter Stm.reset_stats t.stm

let commit_cycles_histogram t = Obs.Metrics.buckets t.h_commit

let attempt_number tx = tx.attempt
let in_fallback tx = match tx.path with P_tle -> true | P_hw | P_stm -> false
let tx_tid tx = Sim.tid tx.ctx

(* The software domain of a transaction running on the [P_stm] path. *)
let sw tx = match tx.owner.stm with Some s -> s | None -> assert false

let illegal tx addr =
  if tx.owner.cfg.sandboxed then abort_with Illegal
  else raise (Simmem.Fault (Simmem.Use_after_free addr))

let read tx addr =
  match tx.path with
  | P_tle -> Simmem.read tx.mem tx.ctx addr
  | P_stm -> Stm.read (sw tx) tx addr
  | P_hw ->
    let bi = find_write tx addr in
    if bi >= 0 then tx.wval.(bi)
    else begin
      let mem = tx.mem in
      if Simmem.Tx_plane.read_ver mem tx.ctx addr < 0 then illegal tx addr
      else begin
        let v = Simmem.Tx_plane.read_value mem in
        (* Opacity: the whole read set must still hold after every load.
           Under [Line] the noted versions are the read lines', so a
           committed store anywhere on a read line fails the check. The
           transaction's own writes are buffered until after commit
           validation and so can never doom it on either plane. *)
        Simmem.Read_set.note tx.reads addr;
        if not (Simmem.Read_set.validate tx.reads) then begin
          (* Under [Line] the witnessed address is the word this
             transaction read on the doomed line; the aggressor may have
             written another word of it (false sharing), so the line in
             the witness is the authoritative part. *)
          ignore (witness_invalid_read tx "htm.read");
          abort_with Conflict
        end;
        v
      end
    end

let consume_store_slot tx =
  tx.nstores <- tx.nstores + 1;
  if tx.nstores > tx.owner.cfg.store_buffer then abort_with Overflow;
  Sim.tick tx.ctx tx.owner.cfg.tx_store_cost

let write tx addr v =
  match tx.path with
  | P_tle -> Simmem.write tx.mem tx.ctx addr v
  | P_stm -> Stm.write (sw tx) tx addr v
  | P_hw ->
    if not (Simmem.is_allocated tx.mem addr) then illegal tx addr;
    consume_store_slot tx;
    buffer_write tx addr v

let record tx =
  match tx.path with
  | P_tle -> Sim.tick tx.ctx tx.owner.cfg.tx_store_cost
  | P_stm -> Stm.record (sw tx) tx
  | P_hw -> consume_store_slot tx

let abort tx =
  match tx.path with
  | P_hw | P_stm -> abort_with Explicit
  | P_tle -> invalid_arg "Htm.abort: cannot abort under the TLE lock"

let defer_free = defer_free

(* Commit: validate, then apply the write buffer without yielding so the
   transaction is atomic in virtual time. *)
let commit tx =
  let mem = tx.mem in
  if not (Simmem.Read_set.validate tx.reads) then begin
    ignore (witness_invalid_read tx "htm.commit");
    abort_with Conflict
  end;
  let freed = first_freed_write tx in
  if freed >= 0 then illegal tx freed;
  Sim.charge tx.ctx tx.owner.cfg.tx_commit_cost;
  for i = 0 to tx.nwrites - 1 do
    let ok = Simmem.Tx_plane.commit_write mem tx.ctx tx.waddr.(i) tx.wval.(i) in
    assert ok
  done;
  Sim.tick tx.ctx 0

let count_abort h ~tid = function
  | Conflict -> Obs.Metrics.incr_t h.c_conflict tid
  | Overflow -> Obs.Metrics.incr_t h.c_overflow tid
  | Illegal -> Obs.Metrics.incr_t h.c_illegal tid
  | Explicit -> Obs.Metrics.incr_t h.c_explicit tid
  | Lock_held -> Obs.Metrics.incr_t h.c_lock tid
  | Spurious -> Obs.Metrics.incr_t h.c_spurious tid

let backoff h ctx n =
  Sim.tick ctx
    (Sim.Backoff.delay ~base:h.cfg.backoff_base ~cap:h.cfg.backoff_max (Sim.rng ctx) n)

let acquire_lock h ctx =
  let rec spin n =
    if not (Simmem.cas h.hmem ctx h.lock_addr ~expected:0 ~desired:1) then begin
      backoff h ctx n;
      spin (min (n + 1) 6)
    end
  in
  spin 0

(* Lock release is a store with release semantics: every critical-section
   store must be globally visible before the lock word clears, or a
   hardware transaction could observe the lock free while the section's
   stores still sit in the releaser's buffer. [fenced_write] is exactly
   [Simmem.write] under the [sc] model. *)
let release_lock h ctx = Simmem.fenced_write h.hmem ctx h.lock_addr 0

let tle_enabled h = match h.cfg.tle with Tle_never -> false | Tle_after _ -> true

(* Lifecycle points report to the heap's sinks; events are built only
   when one is attached. *)
let observed h = Simmem.observed h.hmem
let emit h ctx ev = Simmem.emit h.hmem ctx (Simmem.Tx ev)

let hop h ctx from_path to_path reason witness =
  if observed h then
    Simmem.emit h.hmem ctx (Simmem.Hop { from_path; to_path; reason; witness })

let run_locked h ctx tx attempt f =
  acquire_lock h ctx;
  Obs.Metrics.incr1 h.c_fallbacks;
  Obs.Metrics.incr_t h.c_att_tle (Sim.tid ctx);
  reset tx P_tle attempt;
  if observed h then emit h ctx (Tx_fallback { fb_attempt = attempt });
  (* Crash safety: the lock must be released on every exit path — including
     an injected kill raising [Stop_thread] out of the block — and the
     release itself must not be interruptible, or one dead thread wedges
     every future transaction. [Sim.shield] models a robust-futex-style
     release whose completion the OS guarantees. *)
  let released = ref false in
  let release () =
    if not !released then begin
      released := true;
      Sim.shield ctx (fun () -> release_lock h ctx);
      if observed h then
        emit h ctx (Tx_release { rl_attempt = attempt; rl_start = tx.start })
    end
  in
  Fun.protect ~finally:release (fun () ->
      let v = f tx in
      release ();
      run_frees tx;
      emit_commit tx;
      v)

(* The software slow path: run the block as an STM transaction on the
   same descriptor, with the configured attempt budget. If the budget
   runs dry and TLE is enabled, the lock is the last resort. *)
let run_stm h s ctx tx n ~last f on_abort =
  Obs.Metrics.incr1 h.c_esc_stm;
  hop h ctx P_hw P_stm last tx.last_witness;
  if observed h then emit h ctx (Tx_escalate { esc_to = P_stm; esc_attempt = n });
  match Stm.atomic s tx ~budget:h.cfg.stm_attempts ~attempts:h.c_att_stm ~on_abort f with
  | v -> v
  | exception Retry_exhausted r when tle_enabled h ->
    if observed h then emit h ctx (Tx_escalate { esc_to = P_tle; esc_attempt = n });
    hop h ctx P_stm P_tle r tx.last_witness;
    run_locked h ctx tx n f

(* Success bookkeeping, shared by all three paths: escalation stats,
   cycles-to-commit, and a liveness-watchdog note. *)
let finish h ctx t0 n =
  if n > Obs.Metrics.gauge_max h.g_consec then Obs.Metrics.set h.g_consec n;
  Obs.Metrics.observe h.h_commit (Sim.clock ctx - t0);
  Obs.Metrics.incr_by h.c_cycles (Sim.clock ctx - t0);
  Sim.note_progress ctx

(* The attempt loop lives at top level (not as a closure inside [atomic])
   so a pooled transaction's whole fast path — begin, body, commit —
   allocates nothing: one [atomic] call is a handful of array stores and
   unboxed arithmetic unless it aborts or escalates. *)
let rec attempt_loop h ctx tx f on_abort tid t0 n last =
  (* Escalation policy. Capacity aborts go straight to the software
     path — no hardware retry can ever fit an overflowing write set —
     while conflicts buy [m] backed-off hardware retries first. *)
  let esc_stm =
    match h.cfg.stm, h.stm with
    | Stm_after m, Some _ -> n >= m || (match last with Overflow -> true | _ -> false)
    | _ -> false
  in
  (* With an STM policy the lock is reachable only through STM budget
     exhaustion (see [run_stm]); without one, [Tle_after k] escalates
     directly from hardware aborts as before. *)
  let use_lock =
    match h.cfg.stm, h.cfg.tle with
    | Stm_after _, _ -> false
    | Stm_never, Tle_never -> false
    | Stm_never, Tle_after k -> n >= k
  in
  if esc_stm then begin
    let v = run_stm h (sw tx) ctx tx n ~last f on_abort in
    finish h ctx t0 n;
    v
  end
  else if use_lock then begin
    hop h ctx P_hw P_tle last tx.last_witness;
    let v = run_locked h ctx tx n f in
    finish h ctx t0 n;
    v
  end
  else if h.cfg.max_attempts > 0 && n >= h.cfg.max_attempts then
    (* Retry budget exhausted with no escalation left to rescue us:
       fail fast with the last abort reason instead of spinning. *)
    raise (Retry_exhausted last)
  else begin
    (* Small cost jitter models real-hardware timing noise; without it,
       deterministic costs let the backoff phase-lock contending threads
       into conflict-free lockstep that a real machine's pipeline and
       interrupt noise would constantly break. *)
    Sim.tick ctx (h.cfg.tx_begin_cost + Sim.Rng.int (Sim.rng ctx) 16);
    (* Strong atomicity (paper §6): transaction begin drains the
       thread's store buffer so tx reads never miss its own pre-tx
       stores, and commit writes through [Tx_plane] — tx stores never
       linger in a buffer. No-op under the [sc] model. *)
    Simmem.drain h.hmem ctx;
    reset tx P_hw n;
    Obs.Metrics.incr_t h.c_att_hw tid;
    match
      (* An environmental abort (interrupt, TLB miss, register-window
         spill — Rock's whole catalogue) can strike any attempt. *)
      (if Sim.spurious_fires ctx then abort_with Spurious);
      (* Under TLE every hardware transaction monitors the lock word:
         observing it held aborts now, and a later acquisition changes the
         word's version, dooming us at validation. *)
      (if tle_enabled h && read tx h.lock_addr <> 0 then abort_with Lock_held);
      let v = f tx in
      commit tx;
      v
    with
    | v ->
      Obs.Metrics.incr_t h.c_commits tid;
      Obs.Metrics.observe h.h_stores tx.nstores;
      emit_commit tx;
      run_frees tx;
      finish h ctx t0 n;
      v
    | exception Aborted r ->
      count_abort h ~tid r;
      (* A lock-held abort has no validation failure to witness: it gets
         one against the lock word, whose last writer (the holder's
         acquiring CAS) is the aggressor. *)
      (match r, tx.witness with
       | Lock_held, None ->
         set_witness tx ~addr:h.lock_addr ~victim_wrote:false ~in_read_set:true
           ~in_write_set:false "htm.begin"
       | _ -> ());
      settle_abort tx r;
      Sim.tick ctx h.cfg.tx_abort_cost;
      on_abort r;
      (* A capacity overflow cannot succeed on hardware retry; when the
         STM slow path will take the next attempt anyway, escalate
         without paying a pointless backoff. *)
      (match r, h.cfg.stm, h.stm with
       | Overflow, Stm_after _, Some _ -> ()
       | _ -> backoff h ctx n);
      attempt_loop h ctx tx f on_abort tid t0 (n + 1) r
  end

let atomic h ctx ?(on_abort = fun (_ : abort_reason) -> ()) f =
  let tx = acquire h.pool h h.hmem h.cfg.granularity ctx in
  match
    attempt_loop h ctx tx f on_abort (Sim.tid ctx) (Sim.clock ctx) 0 Conflict
  with
  | v ->
    tx.busy <- false;
    v
  | exception e ->
    tx.busy <- false;
    raise e
