(* TL2 over the simulator's versioned words. See stm.mli for the design;
   the load-bearing implementation decisions are:

   - Lock words live in simulated memory and encode
     [version lsl 7 lor (owner_slot + 1)]; 7 bits cover every owner slot
     (61 runnable threads + the boot context — see [slot_of]). The version half
     is only an early-abort hint — safety always rests on Simmem's own
     word versions, which every committed store (hardware, TLE, plain or
     STM) bumps. That is what makes this a correct hybrid: the hardware
     path never learns about the lock table, yet neither side can commit
     over the other undetected.

   - The commit point is atomic in virtual time: ownership re-check,
     final validation, fence check, write-back and lock release use only
     [Sim.charge] / [Simmem.peek] / [Tx_plane.commit_write] (no yields).
     A kill can strike while locks are held (that window is the
     registered ["stm.commit"] fault point), but never between the first
     and last committed store — crash-safety by construction.

   - Lock recovery is heartbeat-based: each thread bumps a private
     heartbeat word when it enters a commit, and a contender that watches
     the same lock, same owner and same heartbeat value for
     [steal_timeout] cycles reverts the lock word. Stealing from a live
     owner is safe (the owner's commit point re-verifies ownership and
     aborts), so the timeout is a liveness knob, not a correctness one.
     The watch state is per-contender-thread and OCaml-side: it costs no
     simulated memory traffic and survives across [atomic] calls, so a
     dead owner is recovered even by threads on bounded retry budgets. *)

open Simmem.Txn
open Simmem.Tx_desc

type clock_scheme = Gv1 | Gv5

type config = { clock_scheme : clock_scheme; steal_timeout : int }

let default_config = { clock_scheme = Gv5; steal_timeout = 25_000 }

(* The instrumentation's cycle costs and the lock-table size. *)
let lock_slots = 256
let start_cost = 15
let read_cost = 12
let write_cost = 10
let validate_cost = 3
let commit_cost = 40
let abort_cost = 80

type stats = {
  commits : int;
  aborts_conflict : int;
  aborts_locked : int;
  aborts_illegal : int;
  aborts_explicit : int;
  attempts : int;
  steals : int;
  clock_bumps : int;
}

(* One heartbeat word per possible owner slot, each on its own cache line
   so the per-commit bump never false-shares with a neighbour's. *)
let hb_stride = 8
let n_tids = 64

(* The lock-word owner field is 7 bits and the heartbeat region is one
   line per owner, both sized for the historical 61-thread machine. Wider
   simulations ({!Sim.max_threads} is 256) keep those layouts — and every
   committed artifact whose heap addresses depend on them — by mapping
   the boot context to slot 61 and rejecting runnable tids beyond 60:
   the software path is a fallback for machines of classic width, not a
   256-thread subject in its own right. *)
let slot_limit = 61

let slot_of tid =
  if tid < slot_limit then tid
  else if tid = Sim.boot_tid then slot_limit
  else invalid_arg "Stm: software transactions support at most 61 threads"

(* Commit scratch, one per owner slot: the write set's distinct lock
   stripes, ascending, and the pre-lock words of the first [nlocks] of
   them — the lock phase acquires stripes in order, so the ones it holds
   are always a prefix. A thread runs one commit at a time, so the
   scratch can live with the thread rather than the descriptor. *)
type lock_scratch = { mutable stripes : int array; mutable old : int array; mutable nlocks : int }

type t = {
  smem : Simmem.t;
  cfg : config;
  clock_addr : int;
  locks : int;  (* base of the lock table *)
  hb : int;  (* base of the heartbeat array *)
  fence : int;
  mreg : Obs.Metrics.t;
  c_commits : Obs.Metrics.counter;
  aborts : Obs.Metrics.counter array;  (* by reason *)
  c_attempts : Obs.Metrics.counter;
  c_steals : Obs.Metrics.counter;
  c_bumps : Obs.Metrics.counter;
  h_commit : Obs.Metrics.hist;
  h_writes : Obs.Metrics.hist;
  (* Per-contender steal watch: (lock addr, owner tid, heartbeat value,
     first-seen clock). OCaml-side bookkeeping, deterministic because it
     is only read and written by its own thread. *)
  watch : (int * int * int * int) option array;
  scratch : lock_scratch array;
}

let create ?(config = default_config) ?metrics ~fence mem =
  let boot = Sim.boot () in
  (* The clock gets its own line; the lock table and heartbeats are
     line-aligned regions of their own. *)
  let clock_addr = Simmem.malloc mem boot 8 in
  Simmem.label mem ~name:"Stm.clock" ~base:clock_addr ~words:8;
  let locks = Simmem.malloc mem boot lock_slots in
  Simmem.label mem ~name:"Stm.locks" ~base:locks ~words:lock_slots;
  let hb = Simmem.malloc mem boot (n_tids * hb_stride) in
  Simmem.label mem ~name:"Stm.heartbeats" ~base:hb ~words:(n_tids * hb_stride);
  let mreg = Obs.Metrics.create ?parent:metrics () in
  (* Registered in this order, which snapshots show (test_htm pins it). *)
  let h_writes = Obs.Metrics.hist mreg "stm.writes_per_tx" in
  let h_commit = Obs.Metrics.hist mreg "stm.commit_cycles" in
  let c_bumps = Obs.Metrics.counter mreg "stm.clock_bumps" in
  let c_steals = Obs.Metrics.counter mreg "stm.steals" in
  let c_attempts = Obs.Metrics.counter ~per_thread:true mreg "stm.attempts" in
  let aborts =
    abort_counters mreg
      [
        (Explicit, "stm.aborts.explicit");
        (Illegal, "stm.aborts.illegal");
        (Lock_held, "stm.aborts.locked");
        (Conflict, "stm.aborts.conflict");
      ]
  in
  {
    smem = mem;
    cfg = config;
    clock_addr;
    locks;
    hb;
    fence;
    mreg;
    c_commits = Obs.Metrics.counter ~per_thread:true mreg "stm.commits";
    aborts;
    c_attempts;
    c_steals;
    c_bumps;
    h_commit;
    h_writes;
    watch = Array.make n_tids None;
    scratch = Array.init n_tids (fun _ -> { stripes = [||]; old = [||]; nlocks = 0 });
  }

let stats t =
  {
    commits = Obs.Metrics.value t.c_commits;
    aborts_conflict = aborts t.aborts Conflict;
    aborts_locked = aborts t.aborts Lock_held;
    aborts_illegal = aborts t.aborts Illegal;
    aborts_explicit = aborts t.aborts Explicit;
    attempts = Obs.Metrics.value t.c_attempts;
    steals = Obs.Metrics.value t.c_steals;
    clock_bumps = Obs.Metrics.value t.c_bumps;
  }

let reset_stats t = Obs.Metrics.reset t.mreg

(* ------------------------------------------------------------------ *)
(* Lock-word encoding and addressing.                                  *)

let owner_of lw = lw land 0x7f
let ver_of lw = lw asr 7
let locked_word ver tid = (ver lsl 7) lor (tid + 1)
let unlocked_word ver = ver lsl 7
let lock_of t addr = t.locks + (addr land (lock_slots - 1))
let hb_addr t tid = t.hb + (tid * hb_stride)

(* ------------------------------------------------------------------ *)
(* Transactions.                                                       *)

(* The first read whose stripe another owner holds, or -1: checked for
   free via [peek] (the commit-time pass is charged in bulk). Top-level
   recursion, so the commit path allocates no closure. *)
let rec held_from s me d i =
  if i >= Simmem.Read_set.length d.reads then -1
  else
    let o = owner_of (Simmem.peek s.smem (lock_of s (Simmem.Read_set.addr d.reads i))) in
    if o <> 0 && o <> me then i else held_from s me d (i + 1)

let first_held_read s d = held_from s (slot_of (Sim.tid d.ctx) + 1) d 0

let read_locks_clear s d = first_held_read s d < 0

(* ---- Conflict forensics: locate the word that doomed an attempt.
   Scanned only on abort paths, so the success path pays nothing. *)

(* In order of likelihood: an invalidated read (the aggressor is the
   committed store that bumped the word's version), a read-set stripe
   locked by another owner, a write target freed under us. *)
let capture_conflict s d site =
  if not (witness_invalid_read d site) then begin
    let held = first_held_read s d in
    if held >= 0 then begin
      let addr = Simmem.Read_set.addr d.reads held in
      let la = lock_of s addr in
      set_witness d ~lookup:la ~aggressor:(owner_of (Simmem.peek s.smem la) - 1) ~addr
        ~victim_wrote:false ~in_read_set:true ~in_write_set:false site
    end
    else begin
      let freed = first_freed_write d in
      if freed >= 0 then
        set_witness d ~addr:freed ~victim_wrote:true ~in_read_set:false
          ~in_write_set:true site
    end
  end

(* The heartbeat stayed stale for a whole timeout: [victim] is presumed
   dead (or descheduled long enough to be treated as such). Release every
   lock it holds, not just the contended one — a crashed commit leaves
   its entire stripe set locked, and stealing those one timeout at a time
   would stall the machine for stripes x timeout cycles. Per-lock CAS on
   the observed word keeps this safe against resurrection: a still-live
   owner re-verifies ownership of all its stripes at its commit point and
   aborts when any was stolen. *)
let steal_from s ctx victim =
  let freed = ref 0 in
  for i = 0 to lock_slots - 1 do
    let la = s.locks + i in
    let lw = Simmem.read s.smem ctx la in
    if
      owner_of lw = victim + 1
      && Simmem.cas s.smem ctx la ~expected:lw ~desired:(unlocked_word (ver_of lw))
    then incr freed
  done;
  if !freed > 0 then begin
    Obs.Metrics.incr_by s.c_steals !freed;
    if Simmem.observed s.smem then
      Simmem.emit s.smem ctx
        (Simmem.Tx (Tx_steal { st_victim = victim; st_locks = !freed }))
  end

(* A held stripe: engage this thread's steal watch, and steal once the
   owner's heartbeat has stayed silent past the timeout. Returns the lock
   word to act on — the reverted (unlocked) word after a successful steal,
   [lw] unchanged otherwise. Shared by the read path and commit-time
   acquisition: both must be able to recover a dead owner's stripe, or an
   adversarial schedule that never resumes a lock holder starves every
   reader of that stripe forever (the explorer finds exactly this). *)
let watch_or_steal s ctx la lw =
  let me = slot_of (Sim.tid ctx) in
  let victim = owner_of lw - 1 in
  let h = Simmem.read s.smem ctx (hb_addr s victim) in
  let now = Sim.clock ctx in
  match s.watch.(me) with
  | Some (la', o', h', t0) when la' = la && o' = victim && h' = h ->
    if now - t0 >= s.cfg.steal_timeout then begin
      steal_from s ctx victim;
      s.watch.(me) <- None;
      Simmem.read s.smem ctx la
    end
    else lw
  | _ ->
    s.watch.(me) <- Some (la, victim, h, now);
    lw

(* Gv5: an aborting reader pushes the clock up to the version that burned
   it, so its retry (and everyone after) starts with a fresh rv. *)
let bump_clock_to s ctx v =
  let c = Simmem.peek s.smem s.clock_addr in
  if c < v then begin
    Obs.Metrics.incr s.c_bumps;
    ignore (Simmem.cas s.smem ctx s.clock_addr ~expected:c ~desired:v)
  end

(* The read of [addr] under stripe word [lw] dies if another owner holds
   the stripe, or if the stripe's version outran our read version. *)
let check_stripe s d ~addr ~la ~in_read_set lw =
  if owner_of lw <> 0 then begin
    set_witness d ~lookup:la ~aggressor:(owner_of lw - 1) ~addr ~victim_wrote:false
      ~in_read_set ~in_write_set:false "stm.read.locked";
    abort_with Lock_held
  end;
  let ver = ver_of lw in
  if ver > d.rv then begin
    (match s.cfg.clock_scheme with
     | Gv5 -> bump_clock_to s d.ctx ver
     | Gv1 -> ());
    (* The stripe version outran our read version: the last committer of
       the lock word is the aggressor. *)
    set_witness d ~lookup:la ~addr ~victim_wrote:false ~in_read_set ~in_write_set:false
      "stm.read.stale";
    abort_with Conflict
  end

let read s d addr =
  let bi = find_write d addr in
  if bi >= 0 then d.wval.(bi)
  else begin
    Sim.tick d.ctx read_cost;
    let la = lock_of s addr in
    (* The instrumentation that makes an STM read an STM read: probe the
       stripe lock (a real, coherence-paying load) before the data. *)
    let lw =
      let lw = Simmem.read s.smem d.ctx la in
      if owner_of lw = 0 then lw else watch_or_steal s d.ctx la lw
    in
    check_stripe s d ~addr ~la ~in_read_set:false lw;
    let ver = Simmem.Tx_plane.read_ver s.smem d.ctx addr in
    if ver < 0 then abort_with Illegal;
    let v = Simmem.Tx_plane.read_value s.smem in
    (* Opacity: like Htm, the whole read set is revalidated against
       Simmem's word versions on every access, so a doomed transaction
       never computes on a mixed snapshot — whoever overwrote us (hardware
       commit, TLE section, plain store, another STM commit's write-back). *)
    Simmem.Read_set.note d.reads addr ver;
    if not (Simmem.Read_set.validate d.reads) then begin
      capture_conflict s d "stm.read";
      abort_with Conflict
    end;
    (* the stripe may have been locked while we fetched the value *)
    check_stripe s d ~addr ~la ~in_read_set:true (Simmem.peek s.smem la);
    v
  end

let write s d addr v =
  if not (Simmem.is_allocated s.smem addr) then abort_with Illegal;
  Sim.tick d.ctx write_cost;
  buffer_write d addr v

let record d = Sim.tick d.ctx write_cost

(* ------------------------------------------------------------------ *)
(* Commit.                                                             *)

(* Revert every acquired stripe we still own. [commit_write] only, so the
   release is atomic in virtual time; stripes already stolen (and perhaps
   re-locked by their stealer) are left alone. *)
let release_owned s d lk =
  let me = slot_of (Sim.tid d.ctx) in
  for i = 0 to lk.nlocks - 1 do
    let la = lk.stripes.(i) and old = lk.old.(i) in
    if Simmem.peek s.smem la = locked_word (ver_of old) me then
      ignore (Simmem.Tx_plane.commit_write s.smem d.ctx la old)
  done;
  lk.nlocks <- 0

(* The write set's distinct lock stripes, ascending — deduplicated so a
   stripe is acquired once, ordered so the acquisition sequence is
   deterministic. Insertion sort into the scratch array: write sets are
   small and the pass allocates nothing once the scratch has grown.
   Returns the stripe count. *)
let sort_stripes s d lk =
  if Array.length lk.stripes < d.nwrites then begin
    lk.stripes <- Array.make (Array.length d.waddr) 0;
    lk.old <- Array.make (Array.length d.waddr) 0
  end;
  let n = ref 0 in
  for i = 0 to d.nwrites - 1 do
    let la = lock_of s d.waddr.(i) in
    let j = ref 0 in
    while !j < !n && lk.stripes.(!j) < la do incr j done;
    if !j = !n || lk.stripes.(!j) <> la then begin
      for k = !n downto !j + 1 do
        lk.stripes.(k) <- lk.stripes.(k - 1)
      done;
      lk.stripes.(!j) <- la;
      incr n
    end
  done;
  !n

(* Acquire the next stripe, or decide this attempt dies. Dead-owner
   recovery: see the watch protocol at the top of the file. *)
let rec acquire s ctx lk =
  let me = slot_of (Sim.tid ctx) in
  let la = lk.stripes.(lk.nlocks) in
  let lw = Simmem.read s.smem ctx la in
  if owner_of lw = 0 then begin
    if Simmem.cas s.smem ctx la ~expected:lw ~desired:(locked_word (ver_of lw) me)
    then begin
      lk.old.(lk.nlocks) <- lw;
      lk.nlocks <- lk.nlocks + 1;
      true
    end
    else acquire s ctx lk
  end
  else begin
    let lw' = watch_or_steal s ctx la lw in
    if owner_of lw' = 0 then acquire s ctx lk else false
  end

let commit s d lk =
  let ctx = d.ctx in
  let me = slot_of (Sim.tid ctx) in
  if d.nwrites = 0 then begin
    (* Read-only: the per-read revalidation kept the snapshot consistent;
       one final atomic validation pins its linearization point. The TLE
       fence must hold here too — a reader linearizing while the lock is
       held could observe a half-applied critical section that per-word
       validation cannot detect. *)
    Sim.charge ctx commit_cost;
    let fenced = s.fence <> 0 && Simmem.peek s.smem s.fence <> 0 in
    if fenced then begin
      set_witness d ~addr:s.fence ~victim_wrote:false ~in_read_set:false
        ~in_write_set:false "stm.commit.fence";
      abort_with Lock_held
    end;
    if not (Simmem.Read_set.validate d.reads && read_locks_clear s d) then begin
      capture_conflict s d "stm.commit";
      abort_with Conflict
    end
  end
  else begin
    (* Entering the lock phase: bump the heartbeat so contenders can tell
       a slow owner from a dead one. *)
    Simmem.write s.smem ctx (hb_addr s me) (Sim.clock ctx + 1);
    let nls = sort_stripes s d lk in
    lk.nlocks <- 0;
    while lk.nlocks < nls && acquire s ctx lk do () done;
    if lk.nlocks < nls then begin
      let la = lk.stripes.(lk.nlocks) in
      release_owned s d lk;
      let o = owner_of (Simmem.peek s.smem la) in
      set_witness d ~lookup:la
        ?aggressor:(if o = 0 then None else Some (o - 1))
        ~addr:la ~victim_wrote:true ~in_read_set:false ~in_write_set:true
        "stm.commit.locked";
      abort_with Lock_held
    end;
    (* Locks held, nothing written: the window a crash must not wedge —
       the registered kill point for fault plans. *)
    Sim.fault_point ctx "stm.commit";
    Sim.tick ctx (validate_cost * (Simmem.Read_set.distinct d.reads + 1));
    if
      not
        (Simmem.Read_set.validate d.reads && read_locks_clear s d && first_freed_write d < 0)
    then begin
      release_owned s d lk;
      capture_conflict s d "stm.commit";
      abort_with Conflict
    end;
    (* Write version. Gv1 pays an atomic on the clock line per commit;
       Gv5 reads it plainly and keeps versions per-word monotone via the
       locked stripes' old versions. *)
    let wv =
      match s.cfg.clock_scheme with
      | Gv1 -> Simmem.fetch_add s.smem ctx s.clock_addr 1 + 1
      | Gv5 ->
        let c = Simmem.read s.smem ctx s.clock_addr in
        let maxv = ref c in
        for i = 0 to lk.nlocks - 1 do
          if ver_of lk.old.(i) > !maxv then maxv := ver_of lk.old.(i)
        done;
        !maxv + 1
    in
    (* The atomic commit point: charge + peek + commit_write only. *)
    Sim.charge ctx commit_cost;
    let mine = ref true in
    for i = 0 to lk.nlocks - 1 do
      if Simmem.peek s.smem lk.stripes.(i) <> locked_word (ver_of lk.old.(i)) me then
        mine := false
    done;
    let fenced = s.fence <> 0 && Simmem.peek s.smem s.fence <> 0 in
    if
      not
        (!mine && (not fenced)
        && Simmem.Read_set.validate d.reads
        && read_locks_clear s d && first_freed_write d < 0)
    then begin
      release_owned s d lk;
      if fenced then
        set_witness d ~addr:s.fence ~victim_wrote:false ~in_read_set:false
          ~in_write_set:false "stm.commit.fence"
      else capture_conflict s d "stm.commit.final";
      abort_with (if fenced then Lock_held else Conflict)
    end;
    write_back d;
    for i = 0 to lk.nlocks - 1 do
      ignore (Simmem.Tx_plane.commit_write s.smem ctx lk.stripes.(i) (unlocked_word wv))
    done;
    lk.nlocks <- 0
  end;
  Sim.tick ctx 0

(* ------------------------------------------------------------------ *)
(* The software path of the shared attempt loop.                       *)

let path s ~budget ~attempts =
  {
    tag = P_stm;
    begin_cost = start_cost;
    abort_cost;
    start =
      (fun d ->
        Obs.Metrics.incr_t attempts (Sim.tid d.ctx);
        d.rv <- Simmem.read s.smem d.ctx s.clock_addr);
    commit = (fun d -> commit s d s.scratch.(slot_of (Sim.tid d.ctx)));
    stop = (fun _ n _ -> budget > 0 && n >= budget);
    attempts = s.c_attempts;
    commits = s.c_commits;
    aborts = s.aborts;
    sizes = s.h_writes;
    cycles = Some s.h_commit;
    overflow_escalates = false;
  }
