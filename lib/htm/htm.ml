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
  sandboxed : bool;
  granularity : granularity;
  tle : tle_mode;
  stm : stm_mode;
  stm_attempts : int;
  stm_config : Stm.config;
  max_attempts : int;
}

(* Rock's cycle costs. Store-buffer insertion is pipelined and
   effectively free on Rock; the 32-entry capacity is the constraint that
   matters for sizing. A zero-cost tick is still a scheduling point. *)
let tx_begin_cost = 25
let tx_commit_cost = 35
let tx_store_cost = 0
let tx_abort_cost = 100

let default_config =
  {
    store_buffer = 32;
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
  hw : t path;  (* htm.commits, htm.aborts.*, htm.attempts.hw, htm.stores_per_tx *)
  stm_path : t path option;  (* the software path, iff [stm] is *)
  c_fallbacks : Obs.Metrics.counter;
  c_cycles : Obs.Metrics.counter;
  c_att_stm : Obs.Metrics.counter;
  c_att_tle : Obs.Metrics.counter;
  c_esc_stm : Obs.Metrics.counter;
  g_consec : Obs.Metrics.gauge;
  h_commit : Obs.Metrics.hist;
  lock_addr : int;
  stm : Stm.t option;
}

and tx = t Simmem.Tx_desc.t

let mem t = t.hmem
let config t = t.cfg
let metrics t = t.mreg
let stm t = t.stm

let stats t =
  let s_stats = Option.map Stm.stats t.stm in
  {
    commits = Obs.Metrics.value t.hw.commits;
    aborts_conflict = aborts t.hw.aborts Conflict;
    aborts_overflow = aborts t.hw.aborts Overflow;
    aborts_illegal = aborts t.hw.aborts Illegal;
    aborts_explicit = aborts t.hw.aborts Explicit;
    aborts_lock = aborts t.hw.aborts Lock_held;
    aborts_spurious = aborts t.hw.aborts Spurious;
    lock_fallbacks = Obs.Metrics.value t.c_fallbacks;
    max_consecutive_aborts = Obs.Metrics.gauge_max t.g_consec;
    attempts_hw = Obs.Metrics.value t.hw.attempts;
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
  | P_tle -> tx.tle_reads <- tx.tle_reads + 1; Simmem.read tx.mem tx.ctx addr
  | P_stm -> Stm.read (sw tx) tx addr
  | P_hw ->
    let bi = find_write tx addr in
    if bi >= 0 then tx.wval.(bi)
    else begin
      let mem = tx.mem in
      let ver = Simmem.Tx_plane.read_ver mem tx.ctx addr in
      if ver < 0 then illegal tx addr
      else begin
        let v = Simmem.Tx_plane.read_value mem in
        (* Opacity: the whole read set must still hold after every load.
           Under [Line] the noted versions are the read lines', so a
           committed store anywhere on a read line fails the check. The
           transaction's own writes are buffered until after commit
           validation and so can never doom it on either plane. *)
        Simmem.Read_set.note tx.reads addr ver;
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
  Sim.tick tx.ctx tx_store_cost

let write tx addr v =
  match tx.path with
  | P_tle -> tx.tle_writes <- tx.tle_writes + 1; Simmem.write tx.mem tx.ctx addr v
  | P_stm -> Stm.write (sw tx) tx addr v
  | P_hw ->
    if not (Simmem.is_allocated tx.mem addr) then illegal tx addr;
    consume_store_slot tx;
    buffer_write tx addr v

let record tx =
  match tx.path with
  | P_tle -> Sim.tick tx.ctx tx_store_cost
  | P_stm -> Stm.record tx
  | P_hw -> consume_store_slot tx

let abort tx =
  match tx.path with
  | P_hw | P_stm -> abort_with Explicit
  | P_tle -> invalid_arg "Htm.abort: cannot abort under the TLE lock"

let defer_free = defer_free

(* Commit: validate, then apply the write buffer without yielding so the
   transaction is atomic in virtual time. *)
let commit tx =
  if not (Simmem.Read_set.validate tx.reads) then begin
    ignore (witness_invalid_read tx "htm.commit");
    abort_with Conflict
  end;
  let freed = first_freed_write tx in
  if freed >= 0 then illegal tx freed;
  Sim.charge tx.ctx tx_commit_cost;
  write_back tx;
  Sim.tick tx.ctx 0

let tle_enabled h = match h.cfg.tle with Tle_never -> false | Tle_after _ -> true

(* An environmental abort (interrupt, TLB miss, register-window spill —
   Rock's whole catalogue) can strike any attempt. Under TLE every
   hardware transaction monitors the lock word: observing it held aborts
   now, and a later acquisition changes the word's version, dooming us at
   validation. A lock-held abort has no validation failure to witness:
   it gets one against the lock word, whose last writer (the holder's
   acquiring CAS) is the aggressor. *)
let hw_start tx =
  if Sim.spurious_fires tx.ctx then abort_with Spurious;
  let h = tx.owner in
  if tle_enabled h && read tx h.lock_addr <> 0 then begin
    set_witness tx ~addr:h.lock_addr ~victim_wrote:false ~in_read_set:true
      ~in_write_set:false "htm.begin";
    abort_with Lock_held
  end

(* Escalation policy. Capacity aborts go straight to the software path —
   no hardware retry can ever fit an overflowing write set — while
   conflicts buy [m] backed-off hardware retries first. *)
let esc_stm h n last =
  match h.cfg.stm, last with
  | Stm_never, _ -> false
  | Stm_after _, Overflow -> true
  | Stm_after m, _ -> n >= m

(* With an STM policy the lock is reachable only through STM budget
   exhaustion (see [escalate]); without one, [Tle_after k] escalates
   directly from hardware aborts. *)
let use_lock h n =
  match h.cfg.stm, h.cfg.tle with
  | Stm_never, Tle_after k -> n >= k
  | Stm_after _, _ | Stm_never, Tle_never -> false

(* The hardware path stops when a slow path takes over, or when its retry
   budget runs dry with none to rescue it. The escalation is decided here,
   once: the descriptor moves to the path that takes over ([P_hw] when
   none does; the next attempt's [reset] overwrites it), and [escalate]
   follows it. *)
let hw_stop tx n last =
  let h = tx.owner in
  tx.path <- (if esc_stm h n last then P_stm else if use_lock h n then P_tle else P_hw);
  tx.path <> P_hw || (h.cfg.max_attempts > 0 && n >= h.cfg.max_attempts)

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
  (* Registered in this order, which snapshots show (test_htm pins it). *)
  let counter = Obs.Metrics.counter mreg
  and per_thread = Obs.Metrics.counter ~per_thread:true mreg in
  let h_stores = Obs.Metrics.hist mreg "htm.stores_per_tx" in
  let h_commit = Obs.Metrics.hist mreg "htm.commit_cycles" in
  let g_consec = Obs.Metrics.gauge mreg "htm.max_consecutive_aborts" in
  let c_esc_stm = counter "htm.escalations.stm" in
  let c_att_tle = per_thread "htm.attempts.tle" in
  let c_att_stm = per_thread "htm.attempts.stm" in
  let c_att_hw = per_thread "htm.attempts.hw" in
  let c_cycles = counter "htm.commit_cycles_total" in
  let c_fallbacks = counter "htm.fallbacks" in
  let aborts =
    abort_counters mreg
      [
        (Spurious, "htm.aborts.spurious");
        (Lock_held, "htm.aborts.lock_held");
        (Explicit, "htm.aborts.explicit");
        (Illegal, "htm.aborts.illegal");
        (Overflow, "htm.aborts.overflow");
        (Conflict, "htm.aborts.conflict");
      ]
  in
  let hw =
    {
      tag = P_hw;
      begin_cost = tx_begin_cost;
      abort_cost = tx_abort_cost;
      start = hw_start;
      commit;
      stop = hw_stop;
      attempts = c_att_hw;
      commits = per_thread "htm.commits";
      aborts;
      sizes = h_stores;
      cycles = None;
      overflow_escalates = Option.is_some stm;
    }
  in
  {
    hmem = mem;
    cfg = config;
    pool = Simmem.Tx_desc.pool mem;
    mreg;
    hw;
    stm_path =
      Option.map (fun s -> Stm.path s ~budget:config.stm_attempts ~attempts:c_att_stm) stm;
    c_fallbacks;
    c_cycles;
    c_att_stm;
    c_att_tle;
    c_esc_stm;
    g_consec;
    h_commit;
    lock_addr;
    stm;
  }

let acquire_lock h ctx =
  let rec spin n =
    if not (Simmem.cas h.hmem ctx h.lock_addr ~expected:0 ~desired:1) then begin
      backoff ctx n;
      spin (Int.min (n + 1) 6)
    end
  in
  spin 0

(* Lock release is a store with release semantics: every critical-section
   store must be globally visible before the lock word clears, or a
   hardware transaction could observe the lock free while the section's
   stores still sit in the releaser's buffer. [fenced_write] is exactly
   [Simmem.write] under the [sc] model. *)
let release_lock h ctx = Simmem.fenced_write h.hmem ctx h.lock_addr 0

(* Lifecycle points report to the heap's sinks; events are built only
   when one is attached. *)
let observed h = Simmem.observed h.hmem
let emit h ctx ev = Simmem.emit h.hmem ctx (Simmem.Tx ev)

(* One escalation hop, driven by the last abort on [from_path]. *)
let hop h ctx tx from_path to_path reason attempt =
  if observed h then
    Simmem.emit h.hmem ctx
      (Simmem.Hop { from_path; to_path; reason; witness = tx.last_witness; attempt })

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
  let release () =
    Sim.shield ctx (fun () -> release_lock h ctx);
    if observed h then emit h ctx (Tx_release { rl_attempt = attempt; rl_start = tx.start })
  in
  match f tx with
  | v ->
    release ();
    run_frees tx;
    emit_commit tx;
    v
  | exception e ->
    release ();
    raise e

(* The hardware path stopped before attempt [n], after aborting with
   [last]: escalate to the path [hw_stop] moved the descriptor to, or give
   up with [stop]. The software path runs the block on the same
   descriptor; if its budget runs dry and TLE is enabled, the lock is the
   last resort. *)
let escalate h ctx tx f on_abort n last stop =
  match tx.path with
  | P_stm -> begin
    Obs.Metrics.incr1 h.c_esc_stm;
    hop h ctx tx P_hw P_stm last n;
    match run (Option.get h.stm_path) tx f on_abort with
    | v -> v
    | exception Retry_exhausted r when tle_enabled h ->
      hop h ctx tx P_stm P_tle r n;
      run_locked h ctx tx n f
  end
  | P_tle ->
    hop h ctx tx P_hw P_tle last n;
    run_locked h ctx tx n f
  | P_hw -> raise stop

(* Success bookkeeping for the whole operation, whichever path committed
   it: the hardware retry chain, cycles-to-commit, and a liveness note. *)
let finish h tx t0 n v =
  let ctx = tx.ctx in
  if n > Obs.Metrics.gauge_max h.g_consec then Obs.Metrics.set h.g_consec n;
  Obs.Metrics.observe h.h_commit (Sim.clock ctx - t0);
  Obs.Metrics.incr_by h.c_cycles (Sim.clock ctx - t0);
  Sim.note_progress ctx;
  v

let atomic h ctx ?(on_abort = ignore) f =
  let tx = acquire h.pool h h.hmem h.cfg.granularity ctx in
  let t0 = Sim.clock ctx in
  match
    match run h.hw tx f on_abort with
    | v -> finish h tx t0 tx.attempt v
    | exception (Retry_exhausted last as stop) ->
      let n = tx.attempt in
      finish h tx t0 n (escalate h ctx tx f on_abort n last stop)
  with
  | v ->
    tx.busy <- false;
    v
  | exception e ->
    tx.busy <- false;
    raise e
