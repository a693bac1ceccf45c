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

type clock_scheme = Gv1 | Gv5

type config = {
  clock_scheme : clock_scheme;
  lock_slots : int;
  start_cost : int;
  read_cost : int;
  write_cost : int;
  validate_cost : int;
  commit_cost : int;
  abort_cost : int;
  backoff_base : int;
  backoff_max : int;
  steal_timeout : int;
  max_attempts : int;
}

let default_config =
  {
    clock_scheme = Gv5;
    lock_slots = 256;
    start_cost = 15;
    read_cost = 12;
    write_cost = 10;
    validate_cost = 3;
    commit_cost = 40;
    abort_cost = 80;
    backoff_base = 60;
    backoff_max = 16384;
    steal_timeout = 25_000;
    max_attempts = 0;
  }

type abort_reason = Conflict | Locked | Illegal | Explicit

let abort_label = function
  | Conflict -> "conflict"
  | Locked -> "locked"
  | Illegal -> "illegal"
  | Explicit -> "explicit"

let pp_abort_reason ppf r = Format.pp_print_string ppf (abort_label r)

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

type tx_event =
  | Ev_commit of { ev_reads : int; ev_writes : int; ev_attempt : int }
  | Ev_abort of {
      ev_reason : abort_reason;
      ev_attempt : int;
      ev_witness : Obs.Forensics.witness option;
    }
  | Ev_steal of { ev_victim : int }

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

type t = {
  smem : Simmem.t;
  cfg : config;
  clock_addr : int;
  locks : int;  (* base of the lock table *)
  hb : int;  (* base of the heartbeat array *)
  mutable fence : int;
  mreg : Obs.Metrics.t;
  c_commits : Obs.Metrics.counter;
  c_conflict : Obs.Metrics.counter;
  c_locked : Obs.Metrics.counter;
  c_illegal : Obs.Metrics.counter;
  c_explicit : Obs.Metrics.counter;
  c_attempts : Obs.Metrics.counter;
  c_steals : Obs.Metrics.counter;
  c_bumps : Obs.Metrics.counter;
  h_commit : Obs.Metrics.hist;
  h_writes : Obs.Metrics.hist;
  (* Per-contender steal watch: (lock addr, owner tid, heartbeat value,
     first-seen clock). OCaml-side bookkeeping, deterministic because it
     is only read and written by its own thread. *)
  watch : (int * int * int * int) option array;
  (* Per-thread witness of the most recent abort, read by Htm when STM
     budget exhaustion drives the stm->tle escalation hop. *)
  last_w : Obs.Forensics.witness option array;
  mutable tap : (tid:int -> clock:int -> tx_event -> unit) option;
  (* One reusable transaction record per owner slot: [atomic] allocates
     only on a thread's first transaction (or under nesting). *)
  pool : tx option array;
}

and tx = {
  s : t;
  mutable ctx : Sim.tctx;
  mutable busy : bool;
  mutable attempt : int;
  mutable rv : int;
  reads : Simmem.Read_set.t;
  mutable waddr : int array;
  mutable wval : int array;
  mutable nwrites : int;
  mutable frees : int array;
  mutable nfrees : int;
  (* commit scratch: acquired lock stripes and their pre-lock words, plus
     the sorted deduplicated stripe list the lock phase walks *)
  mutable laddr : int array;
  mutable lold : int array;
  mutable nlocks : int;
  mutable saddr : int array;
  mutable witness : Obs.Forensics.witness option;
      (* set at the capture site of the conflict aborting this attempt *)
}

exception Aborted of abort_reason
exception Retry_exhausted of abort_reason

let create ?(config = default_config) ?metrics mem =
  if config.lock_slots land (config.lock_slots - 1) <> 0 || config.lock_slots <= 0
  then invalid_arg "Stm.create: lock_slots must be a power of two";
  let boot = Sim.boot () in
  (* The clock gets its own line; the lock table and heartbeats are
     line-aligned regions of their own. *)
  let clock_addr = Simmem.malloc mem boot 8 in
  Simmem.label mem ~name:"Stm.clock" ~base:clock_addr ~words:8;
  let locks = Simmem.malloc mem boot config.lock_slots in
  Simmem.label mem ~name:"Stm.locks" ~base:locks ~words:config.lock_slots;
  let hb = Simmem.malloc mem boot (n_tids * hb_stride) in
  Simmem.label mem ~name:"Stm.heartbeats" ~base:hb ~words:(n_tids * hb_stride);
  let mreg = Obs.Metrics.create ?parent:metrics () in
  {
    smem = mem;
    cfg = config;
    clock_addr;
    locks;
    hb;
    fence = 0;
    mreg;
    c_commits = Obs.Metrics.counter ~per_thread:true mreg "stm.commits";
    c_conflict = Obs.Metrics.counter ~per_thread:true mreg "stm.aborts.conflict";
    c_locked = Obs.Metrics.counter ~per_thread:true mreg "stm.aborts.locked";
    c_illegal = Obs.Metrics.counter ~per_thread:true mreg "stm.aborts.illegal";
    c_explicit = Obs.Metrics.counter ~per_thread:true mreg "stm.aborts.explicit";
    c_attempts = Obs.Metrics.counter ~per_thread:true mreg "stm.attempts";
    c_steals = Obs.Metrics.counter mreg "stm.steals";
    c_bumps = Obs.Metrics.counter mreg "stm.clock_bumps";
    h_commit = Obs.Metrics.hist mreg "stm.commit_cycles";
    h_writes = Obs.Metrics.hist mreg "stm.writes_per_tx";
    watch = Array.make n_tids None;
    last_w = Array.make n_tids None;
    tap = None;
    pool = Array.make n_tids None;
  }

let mem t = t.smem
let config t = t.cfg
let metrics t = t.mreg
let set_fence t addr = t.fence <- addr
let set_tap t f = t.tap <- f
let last_witness t ctx = t.last_w.(slot_of (Sim.tid ctx))

let emit t ctx ev =
  match t.tap with
  | None -> ()
  | Some f -> f ~tid:(Sim.tid ctx) ~clock:(Sim.clock ctx) ev

let stats t =
  {
    commits = Obs.Metrics.value t.c_commits;
    aborts_conflict = Obs.Metrics.value t.c_conflict;
    aborts_locked = Obs.Metrics.value t.c_locked;
    aborts_illegal = Obs.Metrics.value t.c_illegal;
    aborts_explicit = Obs.Metrics.value t.c_explicit;
    attempts = Obs.Metrics.value t.c_attempts;
    steals = Obs.Metrics.value t.c_steals;
    clock_bumps = Obs.Metrics.value t.c_bumps;
  }

let reset_stats t =
  Obs.Metrics.reset_counter t.c_commits;
  Obs.Metrics.reset_counter t.c_conflict;
  Obs.Metrics.reset_counter t.c_locked;
  Obs.Metrics.reset_counter t.c_illegal;
  Obs.Metrics.reset_counter t.c_explicit;
  Obs.Metrics.reset_counter t.c_attempts;
  Obs.Metrics.reset_counter t.c_steals;
  Obs.Metrics.reset_counter t.c_bumps;
  Obs.Metrics.reset_hist t.h_commit;
  Obs.Metrics.reset_hist t.h_writes

(* ------------------------------------------------------------------ *)
(* Lock-word encoding and addressing.                                  *)

let owner_of lw = lw land 0x7f
let ver_of lw = lw asr 7
let locked_word ver tid = (ver lsl 7) lor (tid + 1)
let unlocked_word ver = ver lsl 7
let lock_of t addr = t.locks + (addr land (t.cfg.lock_slots - 1))
let hb_addr t tid = t.hb + (tid * hb_stride)

(* ------------------------------------------------------------------ *)
(* Transactions.                                                       *)

let attempt_number tx = tx.attempt

let fresh_tx s ctx =
  {
    s;
    ctx;
    busy = false;
    attempt = 0;
    rv = 0;
    reads = Simmem.Read_set.create s.smem Simmem.Word;
    waddr = Array.make 64 0;
    wval = Array.make 64 0;
    nwrites = 0;
    frees = Array.make 8 0;
    nfrees = 0;
    laddr = Array.make 64 0;
    lold = Array.make 64 0;
    nlocks = 0;
    saddr = Array.make 64 0;
    witness = None;
  }

(* Fetch the thread's pooled transaction, falling back to a fresh record
   under nesting (the pooled one is busy running the outer body). *)
let get_tx s ctx =
  let slot = slot_of (Sim.tid ctx) in
  match s.pool.(slot) with
  | Some tx when not tx.busy ->
    tx.ctx <- ctx;
    tx
  | Some _ -> fresh_tx s ctx
  | None ->
    let tx = fresh_tx s ctx in
    s.pool.(slot) <- Some tx;
    tx

let reset_tx tx attempt =
  tx.attempt <- attempt;
  Simmem.Read_set.reset tx.reads;
  tx.nwrites <- 0;
  tx.nlocks <- 0;
  tx.nfrees <- 0;
  tx.witness <- None

let grow a =
  let n = Array.length a in
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

(* Newest matching write-buffer entry, or -1. *)
let rec find_buffered_idx tx addr i =
  if i < 0 then -1
  else if tx.waddr.(i) = addr then i
  else find_buffered_idx tx addr (i - 1)

(* Every read-set stripe unheld (or held by us): checked for free via
   [peek]; the cycle cost of the commit-time pass is charged in bulk. *)
let rec locks_clear_from s me tx i =
  i >= Simmem.Read_set.length tx.reads
  || (let la = lock_of s (Simmem.Read_set.addr tx.reads i) in
      let o = owner_of (Simmem.peek s.smem la) in
      (o = 0 || o = me) && locks_clear_from s me tx (i + 1))

let read_locks_clear tx =
  locks_clear_from tx.s (slot_of (Sim.tid tx.ctx) + 1) tx 0

(* ---- Conflict forensics: locate the word that doomed an attempt.
   Scanned only on abort paths, so the success path pays nothing. *)

let set_witness tx ?lookup ?aggressor ~addr ~victim_wrote ~in_read_set
    ~in_write_set site =
  tx.witness <-
    Some
      (Simmem.conflict_witness tx.s.smem tx.ctx ~addr ?lookup ?aggressor
         ~victim_wrote ~in_read_set ~in_write_set ~site ())

let first_locked_read tx =
  let s = tx.s in
  let me = slot_of (Sim.tid tx.ctx) + 1 in
  let rec go i =
    if i >= Simmem.Read_set.length tx.reads then None
    else
      let addr = Simmem.Read_set.addr tx.reads i in
      let la = lock_of s addr in
      let o = owner_of (Simmem.peek s.smem la) in
      if o <> 0 && o <> me then Some (addr, la, o - 1) else go (i + 1)
  in
  go 0

let first_freed_write tx =
  let mem = tx.s.smem in
  let rec go i =
    if i >= tx.nwrites then None
    else if not (Simmem.is_allocated mem tx.waddr.(i)) then Some tx.waddr.(i)
    else go (i + 1)
  in
  go 0

(* In order of likelihood: an invalidated read (the aggressor is the
   committed store that bumped the word's version), a read-set stripe
   locked by another owner, a write target freed under us. *)
let capture_conflict tx site =
  match Simmem.Read_set.first_invalid tx.reads with
  | addr when addr >= 0 ->
    let wrote = find_buffered_idx tx addr (tx.nwrites - 1) >= 0 in
    set_witness tx ~addr ~victim_wrote:wrote ~in_read_set:true ~in_write_set:wrote
      site
  | _ ->
    (match first_locked_read tx with
     | Some (addr, la, owner) ->
       set_witness tx ~lookup:la ~aggressor:owner ~addr ~victim_wrote:false
         ~in_read_set:true ~in_write_set:false site
     | None ->
       (match first_freed_write tx with
        | Some addr ->
          set_witness tx ~addr ~victim_wrote:true ~in_read_set:false
            ~in_write_set:true site
        | None -> ()))

(* Gv5: an aborting reader pushes the clock up to the version that burned
   it, so its retry (and everyone after) starts with a fresh rv. *)
(* A held stripe: engage this thread's steal watch, and steal once the
   owner's heartbeat has stayed silent past the timeout. Returns the lock
   word to act on — the reverted (unlocked) word after a successful steal,
   [lw] unchanged otherwise. Shared by the read path and commit-time
   acquisition: both must be able to recover a dead owner's stripe, or an
   adversarial schedule that never resumes a lock holder starves every
   reader of that stripe forever (the explorer finds exactly this). *)
(* The heartbeat stayed stale for a whole timeout: [victim] is presumed
   dead (or descheduled long enough to be treated as such). Release every
   lock it holds, not just the contended one — a crashed commit leaves
   its entire stripe set locked, and stealing those one timeout at a time
   would stall the machine for stripes x timeout cycles. Per-lock CAS on
   the observed word keeps this safe against resurrection: a still-live
   owner re-verifies ownership of all its stripes at its commit point and
   aborts when any was stolen. *)
let steal_from s ctx victim =
  let me = Sim.tid ctx in
  let freed = ref 0 in
  for i = 0 to s.cfg.lock_slots - 1 do
    let la = s.locks + i in
    let lw = Simmem.read s.smem ctx la in
    if
      owner_of lw = victim + 1
      && Simmem.cas s.smem ctx la ~expected:lw ~desired:(unlocked_word (ver_of lw))
    then incr freed
  done;
  if !freed > 0 then begin
    Obs.Metrics.incr_by s.c_steals !freed;
    (match s.tap with
     | None -> ()
     | Some _ -> emit s ctx (Ev_steal { ev_victim = victim }));
    match Sim.tracer ctx with
    | None -> ()
    | Some sink ->
      Obs.Tracer.instant sink ~tid:me ~name:"stm.steal" ~cat:"tx"
        ~args:[ ("victim", Obs.Json.Int victim); ("locks", Obs.Json.Int !freed) ]
        (Sim.clock ctx)
  end

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

let bump_clock_to s ctx v =
  let c = Simmem.peek s.smem s.clock_addr in
  if c < v then begin
    Obs.Metrics.incr s.c_bumps;
    ignore (Simmem.cas s.smem ctx s.clock_addr ~expected:c ~desired:v)
  end

let stale tx ~addr ~la ~in_read_set ver =
  if ver > tx.rv then begin
    (match tx.s.cfg.clock_scheme with
     | Gv5 -> bump_clock_to tx.s tx.ctx ver
     | Gv1 -> ());
    (* The stripe version outran our read version: the last committer of
       the lock word is the aggressor. *)
    set_witness tx ~lookup:la ~addr ~victim_wrote:false ~in_read_set
      ~in_write_set:false "stm.read.stale";
    raise (Aborted Conflict)
  end

let read tx addr =
  let bi = find_buffered_idx tx addr (tx.nwrites - 1) in
  if bi >= 0 then tx.wval.(bi)
  else begin
    let s = tx.s in
    Sim.tick tx.ctx s.cfg.read_cost;
    let la = lock_of s addr in
    (* The instrumentation that makes an STM read an STM read: probe the
       stripe lock (a real, coherence-paying load) before the data. *)
    let lw =
      let lw = Simmem.read s.smem tx.ctx la in
      if owner_of lw = 0 then lw else watch_or_steal s tx.ctx la lw
    in
    if owner_of lw <> 0 then begin
      set_witness tx ~lookup:la ~aggressor:(owner_of lw - 1) ~addr
        ~victim_wrote:false ~in_read_set:false ~in_write_set:false
        "stm.read.locked";
      raise (Aborted Locked)
    end;
    stale tx ~addr ~la ~in_read_set:false (ver_of lw);
    if Simmem.Tx_plane.read_ver s.smem tx.ctx addr < 0 then raise (Aborted Illegal);
    let v = Simmem.Tx_plane.read_value s.smem in
    (* Opacity: like Htm, the whole read set is revalidated against
       Simmem's word versions on every access, so a doomed transaction
       never computes on a mixed snapshot — whoever overwrote us (hardware
       commit, TLE section, plain store, another STM commit's write-back). *)
    Simmem.Read_set.note tx.reads addr;
    if not (Simmem.Read_set.validate tx.reads) then begin
      capture_conflict tx "stm.read";
      raise (Aborted Conflict)
    end;
    (* the stripe may have been locked while we fetched the value *)
    let lw' = Simmem.peek s.smem la in
    if owner_of lw' <> 0 then begin
      set_witness tx ~lookup:la ~aggressor:(owner_of lw' - 1) ~addr
        ~victim_wrote:false ~in_read_set:true ~in_write_set:false
        "stm.read.locked";
      raise (Aborted Locked)
    end;
    stale tx ~addr ~la ~in_read_set:true (ver_of lw');
    v
  end

let write tx addr v =
  let s = tx.s in
  if not (Simmem.is_allocated s.smem addr) then raise (Aborted Illegal);
  Sim.tick tx.ctx s.cfg.write_cost;
  if tx.nwrites = Array.length tx.waddr then begin
    tx.waddr <- grow tx.waddr;
    tx.wval <- grow tx.wval
  end;
  tx.waddr.(tx.nwrites) <- addr;
  tx.wval.(tx.nwrites) <- v;
  tx.nwrites <- tx.nwrites + 1

let record tx = Sim.tick tx.ctx tx.s.cfg.write_cost

let abort (_ : tx) = raise (Aborted Explicit)

let defer_free tx base =
  if tx.nfrees = Array.length tx.frees then tx.frees <- grow tx.frees;
  tx.frees.(tx.nfrees) <- base;
  tx.nfrees <- tx.nfrees + 1

let run_frees tx =
  for i = 0 to tx.nfrees - 1 do
    Simmem.free tx.s.smem tx.ctx tx.frees.(i)
  done;
  tx.nfrees <- 0

(* ------------------------------------------------------------------ *)
(* Commit.                                                             *)

let push_lock tx la old =
  if tx.nlocks = Array.length tx.laddr then begin
    tx.laddr <- grow tx.laddr;
    tx.lold <- grow tx.lold
  end;
  tx.laddr.(tx.nlocks) <- la;
  tx.lold.(tx.nlocks) <- old;
  tx.nlocks <- tx.nlocks + 1

(* Revert every acquired stripe we still own. [commit_write] only, so the
   release is atomic in virtual time; stripes already stolen (and perhaps
   re-locked by their stealer) are left alone. *)
let release_owned tx =
  let s = tx.s in
  let me = slot_of (Sim.tid tx.ctx) in
  for i = 0 to tx.nlocks - 1 do
    let la = tx.laddr.(i) and old = tx.lold.(i) in
    if Simmem.peek s.smem la = locked_word (ver_of old) me then
      ignore (Simmem.Tx_plane.commit_write s.smem tx.ctx la old)
  done;
  tx.nlocks <- 0

(* The write set's distinct lock stripes, ascending — deduplicated so a
   stripe is acquired once, ordered so the acquisition sequence is
   deterministic. Insertion sort into the tx's scratch array: write sets
   are small and the pass allocates nothing. Returns the stripe count;
   the stripes themselves sit in [tx.saddr.(0 .. n-1)]. *)
let stripes tx =
  let s = tx.s in
  if Array.length tx.saddr < tx.nwrites then
    tx.saddr <- Array.make (Array.length tx.waddr) 0;
  let n = ref 0 in
  for i = 0 to tx.nwrites - 1 do
    let la = lock_of s tx.waddr.(i) in
    let j = ref 0 in
    while !j < !n && tx.saddr.(!j) < la do incr j done;
    if !j = !n || tx.saddr.(!j) <> la then begin
      for k = !n downto !j + 1 do
        tx.saddr.(k) <- tx.saddr.(k - 1)
      done;
      tx.saddr.(!j) <- la;
      incr n
    end
  done;
  !n

(* Acquire one stripe, or decide this attempt dies. Dead-owner recovery:
   see the watch protocol at the top of the file. *)
let rec acquire tx la =
  let s = tx.s in
  let ctx = tx.ctx in
  let me = slot_of (Sim.tid ctx) in
  let lw = Simmem.read s.smem ctx la in
  if owner_of lw = 0 then begin
    if Simmem.cas s.smem ctx la ~expected:lw ~desired:(locked_word (ver_of lw) me)
    then begin
      push_lock tx la lw;
      true
    end
    else acquire tx la
  end
  else begin
    let lw' = watch_or_steal s ctx la lw in
    if owner_of lw' = 0 then acquire tx la else false
  end

let writes_allocated tx =
  let mem = tx.s.smem in
  let ok = ref true in
  for i = 0 to tx.nwrites - 1 do
    if not (Simmem.is_allocated mem tx.waddr.(i)) then ok := false
  done;
  !ok

let commit tx =
  let s = tx.s in
  let ctx = tx.ctx in
  let me = slot_of (Sim.tid ctx) in
  if tx.nwrites = 0 then begin
    (* Read-only: the per-read revalidation kept the snapshot consistent;
       one final atomic validation pins its linearization point. The TLE
       fence must hold here too — a reader linearizing while the lock is
       held could observe a half-applied critical section that per-word
       validation cannot detect. *)
    Sim.charge ctx s.cfg.commit_cost;
    let fenced = s.fence <> 0 && Simmem.peek s.smem s.fence <> 0 in
    if fenced then begin
      set_witness tx ~addr:s.fence ~victim_wrote:false ~in_read_set:false
        ~in_write_set:false "stm.commit.fence";
      raise (Aborted Locked)
    end;
    if not (Simmem.Read_set.validate tx.reads && read_locks_clear tx) then begin
      capture_conflict tx "stm.commit";
      raise (Aborted Conflict)
    end
  end
  else begin
    (* Entering the lock phase: bump the heartbeat so contenders can tell
       a slow owner from a dead one. *)
    Simmem.write s.smem ctx (hb_addr s me) (Sim.clock ctx + 1);
    let nls = stripes tx in
    let ok = ref true in
    let failed_la = ref 0 in
    let i = ref 0 in
    while !ok && !i < nls do
      let la = tx.saddr.(!i) in
      ok := acquire tx la;
      if not !ok then failed_la := la;
      incr i
    done;
    if not !ok then begin
      release_owned tx;
      let la = !failed_la in
      let o = owner_of (Simmem.peek s.smem la) in
      set_witness tx ~lookup:la
        ?aggressor:(if o = 0 then None else Some (o - 1))
        ~addr:la ~victim_wrote:true ~in_read_set:false ~in_write_set:true
        "stm.commit.locked";
      raise (Aborted Locked)
    end;
    (* Locks held, nothing written: the window a crash must not wedge —
       the registered kill point for fault plans. *)
    Sim.fault_point ctx "stm.commit";
    Sim.tick ctx (s.cfg.validate_cost * (Simmem.Read_set.length tx.reads + 1));
    if
      not
        (Simmem.Read_set.validate tx.reads && read_locks_clear tx
        && writes_allocated tx)
    then begin
      release_owned tx;
      capture_conflict tx "stm.commit";
      raise (Aborted Conflict)
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
        for i = 0 to tx.nlocks - 1 do
          if ver_of tx.lold.(i) > !maxv then maxv := ver_of tx.lold.(i)
        done;
        !maxv + 1
    in
    (* The atomic commit point: charge + peek + commit_write only. *)
    Sim.charge ctx s.cfg.commit_cost;
    let mine = ref true in
    for i = 0 to tx.nlocks - 1 do
      if Simmem.peek s.smem tx.laddr.(i) <> locked_word (ver_of tx.lold.(i)) me then
        mine := false
    done;
    let fenced = s.fence <> 0 && Simmem.peek s.smem s.fence <> 0 in
    if
      not
        (!mine && (not fenced)
        && Simmem.Read_set.validate tx.reads
        && read_locks_clear tx && writes_allocated tx)
    then begin
      release_owned tx;
      if fenced then
        set_witness tx ~addr:s.fence ~victim_wrote:false ~in_read_set:false
          ~in_write_set:false "stm.commit.fence"
      else capture_conflict tx "stm.commit.final";
      raise (Aborted (if fenced then Locked else Conflict))
    end;
    for i = 0 to tx.nwrites - 1 do
      let ok = Simmem.Tx_plane.commit_write s.smem ctx tx.waddr.(i) tx.wval.(i) in
      assert ok
    done;
    for i = 0 to tx.nlocks - 1 do
      ignore (Simmem.Tx_plane.commit_write s.smem ctx tx.laddr.(i) (unlocked_word wv))
    done;
    tx.nlocks <- 0
  end;
  Sim.tick ctx 0

(* ------------------------------------------------------------------ *)
(* The retry loop.                                                     *)

let backoff s ctx n =
  Sim.tick ctx
    (Sim.Backoff.delay ~base:s.cfg.backoff_base ~cap:s.cfg.backoff_max (Sim.rng ctx) n)

(* Top-level (not a closure inside [atomic]) so a pooled transaction's
   fast path allocates nothing. *)
let rec attempt_loop s ctx tx budget f on_abort tr tid t0 n last =
  if budget > 0 && n >= budget then raise (Retry_exhausted last);
  Sim.tick ctx (s.cfg.start_cost + Sim.Rng.int (Sim.rng ctx) 16);
  (* Transaction begin is a full fence: the thread's pre-tx buffered
     stores must be visible before any tx read, or commit-time
     validation would validate against state the thread itself is about
     to overwrite. No-op under the [sc] model. *)
  Simmem.drain s.smem ctx;
  let t_att = Sim.clock ctx in
  reset_tx tx n;
  Obs.Metrics.incr_t s.c_attempts tid;
  tx.rv <- Simmem.read s.smem ctx s.clock_addr;
  match
    let v = f tx in
    commit tx;
    v
  with
  | v ->
    Obs.Metrics.incr_t s.c_commits tid;
    Obs.Metrics.observe s.h_writes tx.nwrites;
    Obs.Metrics.observe s.h_commit (Sim.clock ctx - t0);
    (match s.tap with
     | None -> ()
     | Some _ ->
       emit s ctx
         (Ev_commit
            {
              ev_reads = Simmem.Read_set.length tx.reads;
              ev_writes = tx.nwrites;
              ev_attempt = n;
            }));
    (match tr with
     | None -> ()
     | Some sink ->
       Obs.Tracer.span sink ~tid ~name:"tx.stm" ~cat:"tx"
         ~args:
           [
             ("attempt", Obs.Json.Int n);
             ("reads", Obs.Json.Int (Simmem.Read_set.length tx.reads));
             ("writes", Obs.Json.Int tx.nwrites);
           ]
         t_att (Sim.clock ctx));
    run_frees tx;
    Sim.note_progress ctx;
    v
  | exception Aborted r ->
    (match r with
     | Conflict -> Obs.Metrics.incr_t s.c_conflict tid
     | Locked -> Obs.Metrics.incr_t s.c_locked tid
     | Illegal -> Obs.Metrics.incr_t s.c_illegal tid
     | Explicit -> Obs.Metrics.incr_t s.c_explicit tid);
    let w = tx.witness in
    tx.witness <- None;
    (match w with Some wit -> Simmem.record_witness s.smem ctx wit | None -> ());
    s.last_w.(slot_of tid) <- w;
    (match s.tap with
     | None -> ()
     | Some _ -> emit s ctx (Ev_abort { ev_reason = r; ev_attempt = n; ev_witness = w }));
    (match tr with
     | None -> ()
     | Some sink ->
       Obs.Tracer.instant sink ~tid ~name:"tx.stm.abort" ~cat:"tx"
         ~args:
           [ ("reason", Obs.Json.Str (abort_label r)); ("attempt", Obs.Json.Int n) ]
         (Sim.clock ctx));
    Sim.tick ctx s.cfg.abort_cost;
    on_abort r;
    backoff s ctx n;
    attempt_loop s ctx tx budget f on_abort tr tid t0 (n + 1) r

let atomic s ctx ?max_attempts ?(on_abort = fun (_ : abort_reason) -> ()) f =
  let budget = match max_attempts with Some m -> m | None -> s.cfg.max_attempts in
  let tx = get_tx s ctx in
  tx.busy <- true;
  let t0 = Sim.clock ctx in
  let tid = Sim.tid ctx in
  let tr = Sim.tracer ctx in
  match attempt_loop s ctx tx budget f on_abort tr tid t0 0 Conflict with
  | v ->
    tx.busy <- false;
    v
  | exception e ->
    tx.busy <- false;
    raise e
