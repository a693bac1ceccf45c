type fault =
  | Use_after_free of int
  | Unallocated of int
  | Double_free of int
  | Invalid_free of int

exception Fault of fault

let pp_fault ppf = function
  | Use_after_free a -> Format.fprintf ppf "use-after-free at %#x" a
  | Unallocated a -> Format.fprintf ppf "access to unallocated word %#x" a
  | Double_free a -> Format.fprintf ppf "double free of %#x" a
  | Invalid_free a -> Format.fprintf ppf "free of non-block address %#x" a

(* Virtual-cycle costs of the MESI-like cache-line model. *)
let read_hit = 8 (* load from a line this thread already shares *)
let read_miss = 50 (* load requiring a coherence transfer *)
let write_hit = 8 (* store to a line held exclusively *)
let write_miss = 60 (* store requiring invalidation of other copies *)
let cas_extra = 15 (* atomic-op penalty on top of the store cost *)
let malloc_base = 80
let malloc_per_word = 2
let free_cost = 60

(* Word allocation state. [Freed] words remember that they were once live so
   that a dangling access is reported as use-after-free, not unallocated. *)
let st_never = 0
let st_live = 1
let st_freed = 2

let line_shift = 3 (* 8 words per line *)
let line_words = 1 lsl line_shift

(* ---- Allocation policy ------------------------------------------------

   [Shared_lifo] is the historical allocator: one global bump pointer
   plus exact-size LIFO free lists. It is the default and its address
   sequences are bit-for-bit those of the seed — every committed baseline
   depends on that.

   [Arena placement] shards the allocator: each thread owns an arena that
   carves line-aligned chunks from the global bump pointer and serves
   allocations from them. Frees by the owner go straight back to the
   arena's per-granule free lists; frees by any other thread enqueue the
   block on the owner's remote-free ring (the free itself — state flip,
   version bumps, fault checks — still happens immediately; only *reuse*
   is deferred). The owner drains its ring at its own allocation and
   fence points, so reuse order is a pure function of the virtual-time
   schedule. The placement policy decides how blocks pack into cache
   lines — the knob the malloc-placement ablation turns. *)

type placement =
  | Line_packed (* contiguous bump: blocks share lines, maximal false sharing *)
  | Line_isolated (* every block starts a fresh line and owns it entirely *)
  | Cache_index_aware (* line-isolated + per-thread chunk coloring *)

type alloc_policy = Shared_lifo | Arena of placement

let placement_label = function
  | Line_packed -> "line-packed"
  | Line_isolated -> "line-isolated"
  | Cache_index_aware -> "cache-index-aware"

let alloc_label = function
  | Shared_lifo -> "shared-lifo"
  | Arena p -> "arena/" ^ placement_label p

(* Words a block of [n] user words occupies in an arena. Packed placement
   allocates exactly like the shared path; isolating placements round up
   to whole lines so no two blocks ever share one. *)
let granule_of placement n =
  match placement with
  | Line_packed -> n
  | Line_isolated | Cache_index_aware ->
    (n + line_words - 1) land lnot (line_words - 1)

(* Minimum chunk an arena carves from the global extent, in words. *)
let chunk_min = 512

(* [Cache_index_aware] spreads chunk starts over this many line-index
   residues. *)
let colors = 8

(* Per-thread arena. All state is flat ints/arrays: the steady-state
   malloc/free path allocates nothing on the OCaml heap (the remote ring
   doubles amortized, like the heap arrays themselves). *)
type arena = {
  a_tid : int;
  mutable a_cursor : int; (* next unused word of the current chunk *)
  mutable a_limit : int; (* end of the current chunk (exclusive) *)
  mutable a_carved : int; (* total words this arena took off the global extent *)
  mutable a_fl_head : int array; (* per granule: newest freed block base *)
  mutable a_rq_base : int array; (* remote-free ring: block bases *)
  mutable a_rq_gran : int array; (* remote-free ring: matching granules *)
  mutable a_rq_head : int;
  mutable a_rq_len : int;
  mutable a_remote_frees : int; (* total blocks ever enqueued remotely *)
  mutable a_reg : Sim.tctx option; (* context holding our fence-drain hook *)
}

(* What kind of committed store last touched a word — the aggressor half
   of a conflict witness. *)
type writer_op = Op_store | Op_atomic | Op_commit | Op_malloc | Op_free

let op_label = function
  | Op_store -> "store"
  | Op_atomic -> "atomic"
  | Op_commit -> "commit"
  | Op_malloc -> "malloc"
  | Op_free -> "free"

let op_code = function
  | Op_store -> 0
  | Op_atomic -> 1
  | Op_commit -> 2
  | Op_malloc -> 3
  | Op_free -> 4

let op_of_code = function
  | 0 -> Op_store
  | 1 -> Op_atomic
  | 2 -> Op_commit
  | 3 -> Op_malloc
  | _ -> Op_free

let no_writer = -1

type access =
  | Read of { addr : int; value : int }
  | Write of { addr : int; value : int }
  | Cas of { addr : int; expected : int; desired : int; success : bool }
  | Fetch_add of { addr : int; delta : int; old : int }
  | Malloc of { base : int; words : int }
  | Free of { base : int; words : int }

let pp_access ppf = function
  | Read { addr; value } -> Format.fprintf ppf "read   %#x -> %d" addr value
  | Write { addr; value } -> Format.fprintf ppf "write  %#x <- %d" addr value
  | Cas { addr; expected; desired; success } ->
    Format.fprintf ppf "cas    %#x %d->%d %s" addr expected desired
      (if success then "ok" else "failed")
  | Fetch_add { addr; delta; old } -> Format.fprintf ppf "fadd   %#x +%d (was %d)" addr delta old
  | Malloc { base; words } -> Format.fprintf ppf "malloc %#x (%d words)" base words
  | Free { base; words } -> Format.fprintf ppf "free   %#x (%d words)" base words

module Txn = struct
  type abort_reason = Conflict | Overflow | Illegal | Explicit | Lock_held | Spurious

  let abort_label = function
    | Conflict -> "conflict"
    | Overflow -> "overflow"
    | Illegal -> "illegal"
    | Explicit -> "explicit"
    | Lock_held -> "lock-held"
    | Spurious -> "spurious"

  let pp_abort_reason ppf r = Format.pp_print_string ppf (abort_label r)

  exception Aborted of abort_reason
  exception Retry_exhausted of abort_reason

  let ex_conflict = Aborted Conflict
  and ex_overflow = Aborted Overflow
  and ex_illegal = Aborted Illegal
  and ex_explicit = Aborted Explicit
  and ex_lock_held = Aborted Lock_held
  and ex_spurious = Aborted Spurious

  let abort_with = function
    | Conflict -> raise ex_conflict
    | Overflow -> raise ex_overflow
    | Illegal -> raise ex_illegal
    | Explicit -> raise ex_explicit
    | Lock_held -> raise ex_lock_held
    | Spurious -> raise ex_spurious

  type tx_path = P_hw | P_stm | P_tle

  let path_label = function P_hw -> "hw" | P_stm -> "stm" | P_tle -> "tle"

  type tx_event =
    | Tx_commit of {
        tx_reads : int;
        tx_writes : int;
        tx_path : tx_path;
        tx_attempt : int;
        tx_start : int;
      }
    | Tx_abort of {
        ab_reason : abort_reason;
        ab_path : tx_path;
        ab_attempt : int;
        ab_witness : Obs.Forensics.witness option;
        ab_start : int;
      }
    | Tx_fallback of { fb_attempt : int }
    | Tx_release of { rl_attempt : int; rl_start : int }
    | Tx_escalate of { esc_to : tx_path; esc_attempt : int }
    | Tx_steal of { st_victim : int; st_locks : int }

  let pp_tx_event ppf = function
    | Tx_commit { tx_reads; tx_writes; tx_path; tx_attempt; _ } ->
      Format.fprintf ppf "commit[%s] (%d reads, %d writes, attempt %d)"
        (path_label tx_path) tx_reads tx_writes tx_attempt
    | Tx_abort { ab_reason; ab_path; ab_attempt; ab_witness; _ } ->
      Format.fprintf ppf "abort[%s]: %a (attempt %d)" (path_label ab_path)
        pp_abort_reason ab_reason ab_attempt;
      (match ab_witness with
       | None -> ()
       | Some w -> Format.fprintf ppf " [%a]" Obs.Forensics.pp_witness w)
    | Tx_fallback _ -> Format.pp_print_string ppf "TLE lock fallback"
    | Tx_release { rl_attempt; _ } ->
      Format.fprintf ppf "TLE lock released (attempt %d)" rl_attempt
    | Tx_escalate { esc_to; esc_attempt } ->
      Format.fprintf ppf "escalate to %s (attempt %d)" (path_label esc_to) esc_attempt
    | Tx_steal { st_victim; _ } -> Format.fprintf ppf "stm lock stolen from t%d" st_victim
end

(* Top-level aliases for the sinks below: a top-level function that
   reaches into a submodule closes over it, and its closure is then built
   at startup instead of being static. *)
let abort_label = Txn.abort_label
let path_label = Txn.path_label

(* ---- Machine events ---------------------------------------------------

   Everything an observer learns about a machine arrives as one [event]
   through the heap's single sink slot. Emission never ticks or draws. *)

type event =
  | Access of access
  | Miss of { write : bool; addr : int; line : int; sharers : int; cost : int; wait : int }
  | Label of { name : string; base : int; words : int }
  | Witness of Obs.Forensics.witness
  | Hop of {
      from_path : Txn.tx_path;
      to_path : Txn.tx_path;
      reason : Txn.abort_reason;
      witness : Obs.Forensics.witness option;
    }
  | Tx of Txn.tx_event
  | Sched of Sim.event

type sink = {
  fold : tid:int -> clock:int -> event -> unit;
  accesses : bool;
  journal : bool;
}

(* The Perfetto rendering of the machine's events, the scheduler's run
   slices and fault instants among them. *)
let tracer_sink tr =
  let int key n = (key, Obs.Json.Int n) in
  let span ~tid name args t0 t1 = Obs.Tracer.span tr ~tid ~name ~cat:"tx" ~args t0 t1 in
  let instant ~tid name args t = Obs.Tracer.instant tr ~tid ~name ~cat:"tx" ~args t in
  let fault ~tid name args t = Obs.Tracer.instant tr ~tid ~name ~cat:"fault" ~args t in
  let fold ~tid ~clock = function
    | Access _ | Label _ | Hop _ -> ()
    | Miss { write; addr; sharers; cost; wait; _ } ->
      Obs.Tracer.instant tr ~tid ~cat:"mem"
        ~name:(if write then "miss.write" else "miss.read")
        ~args:[ int "addr" addr; int "cost" cost; int "wait" wait; int "sharers" sharers ]
        clock
    | Witness w ->
      (* A flow arrow from the aggressor's committed write to the
         victim's abort; only the last-writer journal knows the
         aggressor, so a tracer alone draws none. *)
      if w.w_aggressor >= 0 && w.w_aggressor_clock >= 0 then begin
        let id = Obs.Tracer.flow_id tr in
        let args = [ int "addr" w.w_addr; ("site", Obs.Json.Str w.w_site) ] in
        Obs.Tracer.flow_start tr ~tid:w.w_aggressor ~name:"conflict" ~cat:"forensics"
          ~args ~id w.w_aggressor_clock;
        Obs.Tracer.flow_finish tr ~tid:w.w_victim ~name:"conflict" ~cat:"forensics"
          ~args ~id w.w_clock
      end
    | Tx (Tx_commit { tx_path = P_tle; _ }) -> ()
    | Tx (Tx_commit { tx_reads; tx_writes; tx_path; tx_attempt; tx_start }) ->
      span ~tid
        (match tx_path with P_stm -> "tx.stm" | P_hw | P_tle -> "tx")
        [ int "attempt" tx_attempt; int "reads" tx_reads; int "writes" tx_writes ]
        tx_start clock
    | Tx (Tx_abort { ab_reason; ab_path; ab_attempt; ab_start; _ }) ->
      let args =
        [ ("reason", Obs.Json.Str (abort_label ab_reason)); int "attempt" ab_attempt ]
      in
      (match ab_path with
       | P_hw ->
         span ~tid "tx.attempt" [ int "attempt" ab_attempt ] ab_start clock;
         instant ~tid "tx.abort" args clock
       | P_stm | P_tle -> instant ~tid "tx.stm.abort" args clock)
    | Tx (Tx_fallback { fb_attempt }) ->
      instant ~tid "tle.fallback" [ int "attempt" fb_attempt ] clock
    | Tx (Tx_release { rl_attempt; rl_start }) ->
      span ~tid "tx.locked" [ int "attempt" rl_attempt ] rl_start clock
    | Tx (Tx_escalate { esc_to = P_stm; esc_attempt }) ->
      instant ~tid "stm.escalate" [ int "attempt" esc_attempt ] clock
    | Tx (Tx_escalate { esc_to = P_hw | P_tle; _ }) -> ()
    | Tx (Tx_steal { st_victim; st_locks }) ->
      instant ~tid "stm.steal" [ int "victim" st_victim; int "locks" st_locks ] clock
    | Sched (Slice t0) -> Obs.Tracer.span tr ~tid ~name:"run" ~cat:"sched" t0 clock
    | Sched (Fault (Stalled d)) -> fault ~tid "fault.stall" [ int "cycles" d ] clock
    | Sched (Fault Killed) -> fault ~tid "fault.kill" [] clock
    | Sched (Fault (Killed_at p)) ->
      fault ~tid "fault.kill" [ ("point", Obs.Json.Str p) ] clock
    | Sched (Fault Spurious_abort) -> fault ~tid "fault.spurious" [] clock
  in
  { fold; accesses = false; journal = false }

let profiler_sink p =
  let fold ~tid:_ ~clock:_ = function
    | Miss { line; sharers; cost; wait; _ } ->
      Obs.Profiler.record_transfer p ~line ~wait ~cost ~sharers
    | Label { name; base; words } -> Obs.Profiler.label p ~name ~base ~words
    | Access _ | Witness _ | Hop _ | Tx _ | Sched _ -> ()
  in
  { fold; accesses = false; journal = false }

(* Forensics resolves aggressors from the last-writer journal; allocation
   provenance comes off the [Malloc] events every sink receives. *)
let forensics_sink f =
  let fold ~tid ~clock = function
    | Access (Malloc { base; words }) ->
      Obs.Forensics.note_alloc f ~base ~words ~tid ~clock
    | Label { name; base; words } -> Obs.Forensics.label f ~name ~base ~words
    | Witness w -> Obs.Forensics.record f w
    | Hop { from_path; to_path; reason; witness } ->
      Obs.Forensics.note_hop f ~tid ~clock ~from_path:(path_label from_path)
        ~to_path:(path_label to_path) ~reason:(abort_label reason) witness
    | Access _ | Miss _ | Tx _ | Sched _ -> ()
  in
  { fold; accesses = false; journal = true }

(* One thread's FIFO store buffer (active only under a buffered
   {!Sim.Memmodel}): a fixed ring of (addr, value) pairs in two
   preallocated int arrays, filled lazily on first buffered store —
   entries in issue order, [sb_head] the oldest, [sb_len] the count (the
   write path drains one entry before pushing at capacity, so
   [sb_len <= depth] always). [sb_reg] remembers which [Sim.tctx]
   currently has our drain hook installed — contexts are recreated per
   [Sim.run], so a stale registration (physical inequality) means the
   hook must be installed on the new context. *)
type sbuf = {
  mutable sb_addr : int array;
  mutable sb_val : int array;
  mutable sb_head : int;
  mutable sb_len : int;
  mutable sb_reg : Sim.tctx option;
}

(* Per-thread state is indexed by {!slot}: [cap + 1] slots, runnable tids
   below the heap's thread capacity [cap] in their own slot and boot
   contexts in the last. Sharer sets are per-line bitmasks over those
   slots; with the default capacity (61, one word) this is exactly the
   historical one-word layout, and larger capacities spread each line
   over [sw] consecutive words (62 bits per word, line-major). *)
let sh_bits = 62

type t = {
  model : Sim.Memmodel.t;
  alloc : alloc_policy;
  cap : int; (* thread capacity: distinct non-boot tids the sharer sets track *)
  sw : int; (* sharer words per line *)
  sbufs : sbuf array; (* per slot; empty unless the model buffers *)
  arenas : arena option array; (* per slot; empty under Shared_lifo *)
  (* The observers attached with {!attach}, folded into one function. *)
  mutable sink : (tid:int -> clock:int -> event -> unit) option;
  (* The one observability test store paths make: set when an attached
     sink keeps the last-writer journal ([wr_on]) or takes load, store
     and atomic events ([acc_on]), so the no-observer configuration pays
     a single predictable branch per access and allocates nothing. *)
  mutable obs_on : bool;
  mutable wr_on : bool;
  mutable acc_on : bool;
  mutable values : int array;
  mutable versions : int array;
  mutable state : Bytes.t;
  mutable sharers : int array; (* per line: [sw] words of caching-thread bits *)
  mutable line_busy : int array; (* per line: virtual time its current transfer ends *)
  mutable extent : int; (* first never-used address (bump pointer) *)
  mutable block_words : int array; (* per base address: live-block size, 0 = none *)
  mutable block_owner : int array; (* per base: owning tid + 1; empty under Shared_lifo *)
  mutable fl_next : int array; (* per base address: next free block of same size, 0 = end *)
  mutable fl_head : int array; (* per size: base of newest freed block, 0 = none *)
  (* Per-line version counters, bumped alongside every word-version bump,
     with the bumping thread remembered. This is the line-granularity
     conflict plane real HTMs validate on ({!Htm} opts in per config);
     maintaining it unconditionally costs two array stores per committed
     store and is invisible to virtual time. *)
  mutable lversions : int array;
  mutable lw_tid : int array; (* per line: tid of the last version bump, -1 never *)
  (* Machine-wide count of version bumps. Word and line versions change
     only in [bump_version] and only grow, so an unchanged count proves
     that no version anywhere has moved: {!Read_set} uses it to skip
     revalidations whose result is already known. *)
  mutable bumps : int;
  (* Scratch cell for {!Tx_plane.read_ver}: the value read, valid when the
     returned version is >= 0. Lets the transactional read path return an
     unboxed int instead of [Some (v, ver)]. *)
  mutable txr_val : int;
  (* Counts live in the metrics registry; [stats] reads the handles back,
     so per-heap numbers stay exact while a parent registry (if any)
     accumulates fleet-wide totals. *)
  mreg : Obs.Metrics.t;
  c_reads : Obs.Metrics.counter;
  c_read_misses : Obs.Metrics.counter;
  c_writes : Obs.Metrics.counter;
  c_write_misses : Obs.Metrics.counter;
  c_atomics : Obs.Metrics.counter;
  c_allocs : Obs.Metrics.counter;
  c_frees : Obs.Metrics.counter;
  g_live_words : Obs.Metrics.gauge;
  g_live_blocks : Obs.Metrics.gauge;
  h_queue_wait : Obs.Metrics.hist;
  (* Last-writer journal, the aggressor side of conflict witnesses: per
     word, which thread's committed store bumped the version last, what
     kind of store it was and at what clock. Kept while [wr_on]; the
     arrays are allocated on first enable, and capture is a handful of
     array stores, zero virtual cycles. *)
  mutable wr_tid : int array;
  mutable wr_kind : Bytes.t;
  mutable wr_clock : int array;
}

type stats = {
  live_words : int;
  live_blocks : int;
  peak_live_words : int;
  peak_live_blocks : int;
  total_allocs : int;
  total_frees : int;
  heap_extent : int;
  arena_extents : (int * int) list;
  remote_frees : int;
  remote_pending : int;
  reads : int;
  read_misses : int;
  writes : int;
  write_misses : int;
  atomics : int;
}

let default_cap = 61

(* The heap a run starts with, when the caller does not say. Addresses
   come from the bump pointer, never from capacity, so this moves only
   when the arrays grow. The shared allocator starts small: most
   machines use a few hundred words, and [grow] doubles. An arena heap
   starts with room for every arena's first chunk — the threads' and the
   boot context's, which is where the transaction layers' side tables
   go — because doubling through those first carves costs more than the
   run keeps; a machine built without a thread count is sized for one. *)
let default_words alloc threads =
  match alloc with
  | Shared_lifo -> 256
  | Arena placement ->
    let pad = match placement with Cache_index_aware -> (colors - 1) * line_words | _ -> 0 in
    let arenas = match threads with Some n -> n + 1 | None -> 2 in
    line_words + (arenas * (chunk_min + pad))

let create ?(model = Sim.Memmodel.sc) ?metrics ?threads
    ?initial_words ?(alloc = Shared_lifo) () =
  let cap =
    match threads with
    | None -> default_cap
    | Some n ->
      if n < 1 || n > Sim.max_threads then invalid_arg "Simmem.create: threads out of range";
      max default_cap n
  in
  let sw = (cap + 1 + sh_bits - 1) / sh_bits in
  let initial_words =
    max 64 (match initial_words with Some n -> n | None -> default_words alloc threads)
  in
  let mreg = Obs.Metrics.create ?parent:metrics () in
  (* Registered one [let] at a time, so a parent registry lists them in
     this order (pinned by test_simmem). *)
  let h_queue_wait = Obs.Metrics.hist mreg "mem.queue_wait" in
  let g_live_blocks = Obs.Metrics.gauge mreg "mem.live_blocks" in
  let g_live_words = Obs.Metrics.gauge mreg "mem.live_words" in
  let c_frees = Obs.Metrics.counter mreg "mem.frees" in
  let c_allocs = Obs.Metrics.counter mreg "mem.allocs" in
  let c_atomics = Obs.Metrics.counter mreg "mem.atomics" in
  let c_write_misses = Obs.Metrics.counter ~per_thread:true mreg "mem.write_misses" in
  let c_writes = Obs.Metrics.counter ~per_thread:true mreg "mem.writes" in
  let c_read_misses = Obs.Metrics.counter ~per_thread:true mreg "mem.read_misses" in
  let c_reads = Obs.Metrics.counter ~per_thread:true mreg "mem.reads" in
  let arena_mode = alloc <> Shared_lifo in
  {
    model;
    alloc;
    cap;
    sw;
    sbufs =
      (if model.Sim.Memmodel.buffered then
         Array.init (cap + 1) (fun _ ->
             { sb_addr = [||]; sb_val = [||]; sb_head = 0; sb_len = 0; sb_reg = None })
       else [||]);
    arenas = (if arena_mode then Array.make (cap + 1) None else [||]);
    sink = None;
    obs_on = false;
    wr_on = false;
    acc_on = false;
    values = Array.make initial_words 0;
    versions = Array.make initial_words 0;
    state = Bytes.make initial_words (Char.chr st_never);
    sharers = Array.make ((((initial_words lsr line_shift) + 1) * sw)) 0;
    line_busy = Array.make ((initial_words lsr line_shift) + 1) 0;
    extent = 8; (* keep address 0 (null) and the first line unusable *)
    block_words = Array.make initial_words 0;
    block_owner = (if arena_mode then Array.make initial_words 0 else [||]);
    fl_next = Array.make initial_words 0;
    fl_head = Array.make 64 0;
    lversions = Array.make ((initial_words lsr line_shift) + 1) 0;
    lw_tid = Array.make ((initial_words lsr line_shift) + 1) (-1);
    bumps = 0;
    txr_val = 0;
    mreg;
    c_reads;
    c_read_misses;
    c_writes;
    c_write_misses;
    c_atomics;
    c_allocs;
    c_frees;
    g_live_words;
    g_live_blocks;
    h_queue_wait;
    wr_tid = [||];
    wr_kind = Bytes.empty;
    wr_clock = [||];
  }

let stats (t : t) =
  let arena_extents = ref [] and remote_frees = ref 0 and remote_pending = ref 0 in
  (* Slots are in tid order, the boot context's last. *)
  for i = Array.length t.arenas - 1 downto 0 do
    match t.arenas.(i) with
    | None -> ()
    | Some a ->
      arena_extents := (a.a_tid, a.a_carved) :: !arena_extents;
      remote_frees := !remote_frees + a.a_remote_frees;
      remote_pending := !remote_pending + a.a_rq_len
  done;
  {
    live_words = Obs.Metrics.gauge_value t.g_live_words;
    live_blocks = Obs.Metrics.gauge_value t.g_live_blocks;
    peak_live_words = Obs.Metrics.gauge_max t.g_live_words;
    peak_live_blocks = Obs.Metrics.gauge_max t.g_live_blocks;
    total_allocs = Obs.Metrics.value t.c_allocs;
    total_frees = Obs.Metrics.value t.c_frees;
    heap_extent = t.extent;
    arena_extents = !arena_extents;
    remote_frees = !remote_frees;
    remote_pending = !remote_pending;
    reads = Obs.Metrics.value t.c_reads;
    read_misses = Obs.Metrics.value t.c_read_misses;
    writes = Obs.Metrics.value t.c_writes;
    write_misses = Obs.Metrics.value t.c_write_misses;
    atomics = Obs.Metrics.value t.c_atomics;
  }

let metrics t = t.mreg
let model t = t.model
let alloc t = t.alloc
let null = 0

let line_of addr = addr lsr line_shift

(* Public reads stop at the bump pointer, whatever the arrays' capacity. *)
let check_line name t line =
  if line < 0 || line lsl line_shift >= t.extent then
    invalid_arg ("Simmem." ^ name ^ ": line out of heap")

let line_version t line =
  check_line "line_version" t line;
  t.lversions.(line)

let line_writer t line =
  check_line "line_writer" t line;
  t.lw_tid.(line)

(* The slot of [tid] in every per-thread table (sharer-set bits, store
   buffers, arenas, transaction descriptors): runnable tids map to
   themselves, boot contexts to the last slot, [cap]. A runnable tid at
   or beyond the heap's capacity has no slot — the heap must be created
   with [~threads] covering the run. Every load and store maps its tid,
   so the mapping is inlined and its error raised out of line. *)
let beyond_capacity t tid =
  invalid_arg (Printf.sprintf "Simmem: thread %d exceeds this heap's capacity %d" tid t.cap)

let[@inline] slot t tid =
  if tid < t.cap then tid else if tid = Sim.boot_tid then t.cap else beyond_capacity t tid

let slots t = t.cap + 1

let observed t = match t.sink with Some _ -> true | None -> false

(* Sinks fire after the access completes, so the stamped clock includes
   the access cost and the value reflects the post-access state. Callers
   check {!observed} before building an event that allocates. *)
let emit t ctx ev =
  match t.sink with
  | None -> ()
  | Some f -> f ~tid:(Sim.tid ctx) ~clock:(Sim.clock ctx) ev

(* [None] when nothing is attached: an unobserved switch pays one match. *)
let observer t =
  match t.sink with
  | None -> None
  | Some f -> Some (fun ~tid ~clock ev -> f ~tid ~clock (Sched ev))

(* A label is not a thread action: it carries no thread and no clock. *)
let label t ~name ~base ~words =
  match t.sink with
  | None -> ()
  | Some f -> f ~tid:(-1) ~clock:0 (Label { name; base; words })

(* ---- Conflict forensics ----------------------------------------------

   Everything in this section is observation only: plain OCaml mutation,
   no [tick]/[charge], no RNG — an instrumented run is cycle-for-cycle
   identical to a bare one. *)

(* The journal arrays are sized with the heap but only once the journal is
   enabled — a plain run carries no per-word observability footprint. *)
let wr_ensure t =
  let n = Array.length t.values in
  if Array.length t.wr_tid < n then begin
    let wr_tid = Array.make n no_writer in
    Array.blit t.wr_tid 0 wr_tid 0 (Array.length t.wr_tid);
    t.wr_tid <- wr_tid;
    let wr_kind = Bytes.make n '\000' in
    Bytes.blit t.wr_kind 0 wr_kind 0 (Bytes.length t.wr_kind);
    t.wr_kind <- wr_kind;
    let wr_clock = Array.make n 0 in
    Array.blit t.wr_clock 0 wr_clock 0 (Array.length t.wr_clock);
    t.wr_clock <- wr_clock
  end

(* Replace the attached observers. The journal starts empty whenever it
   comes on and is dropped when it goes off, so detaching returns the
   heap to the unobserved state. *)
let attach t sinks =
  let journal = List.exists (fun s -> s.journal) sinks in
  if journal <> t.wr_on then begin
    t.wr_tid <- [||];
    t.wr_kind <- Bytes.empty;
    t.wr_clock <- [||];
    t.wr_on <- journal;
    if journal then wr_ensure t
  end;
  t.acc_on <- List.exists (fun s -> s.accesses) sinks;
  t.obs_on <- t.wr_on || t.acc_on;
  t.sink <-
    (match sinks with
     | [] -> None
     | [ s ] -> Some s.fold
     | ss -> Some (fun ~tid ~clock ev -> List.iter (fun s -> s.fold ~tid ~clock ev) ss))

let note_write t ctx addr op =
  Array.unsafe_set t.wr_tid addr (Sim.tid ctx);
  Bytes.unsafe_set t.wr_kind addr (Char.unsafe_chr (op_code op));
  t.wr_clock.(addr) <- Sim.clock ctx

let last_writer t addr =
  if (not t.wr_on) || addr < 0 || addr >= Array.length t.wr_tid then None
  else
    let tid = Array.unsafe_get t.wr_tid addr in
    if tid = no_writer then None
    else
      Some
        ( tid,
          t.wr_clock.(addr),
          op_of_code (Char.code (Bytes.unsafe_get t.wr_kind addr)) )

(* Build a witness for a conflict the acting thread just lost on [addr].
   The aggressor is resolved from the last-writer journal — of [lookup]
   when given (e.g. a version-lock word whose last committer is the
   conflicting transaction), of [addr] itself otherwise. [aggressor]
   overrides the journal's thread id when the caller knows the owner
   exactly (a lock holder); the journal still supplies clock and op when
   it agrees. *)
let conflict_witness t ctx ~addr ?lookup ?aggressor ~victim_wrote ~in_read_set
    ~in_write_set ~site () =
  let lookup = match lookup with Some a -> a | None -> addr in
  let jtid, jclock, jop =
    match last_writer t lookup with
    | Some (tid, clock, op) -> (tid, clock, op_label op)
    | None -> (-1, -1, "?")
  in
  let agg, agg_clock, op =
    match aggressor with
    | None -> (jtid, jclock, jop)
    | Some tid -> if tid = jtid then (tid, jclock, jop) else (tid, -1, "lock")
  in
  {
    Obs.Forensics.w_victim = Sim.tid ctx;
    w_aggressor = agg;
    w_addr = addr;
    w_line = addr lsr line_shift;
    w_victim_wrote = victim_wrote;
    w_read_set = in_read_set;
    w_write_set = in_write_set;
    w_op = op;
    w_aggressor_clock = agg_clock;
    w_clock = Sim.clock ctx;
    w_site = site;
  }

let record_witness t ctx w = if observed t then emit t ctx (Witness w)

(* A committed store, for the journal and the access sinks. *)
let observe_store t ctx addr v op =
  if t.wr_on then note_write t ctx addr op;
  if t.acc_on then emit t ctx (Access (Write { addr; value = v }))

let grow t needed =
  let cur = Array.length t.values in
  let size = ref cur in
  while !size < needed do
    size := !size * 2
  done;
  let values = Array.make !size 0 in
  Array.blit t.values 0 values 0 cur;
  t.values <- values;
  let versions = Array.make !size 0 in
  Array.blit t.versions 0 versions 0 cur;
  t.versions <- versions;
  let state = Bytes.make !size (Char.chr st_never) in
  Bytes.blit t.state 0 state 0 cur;
  t.state <- state;
  let nlines = (!size lsr line_shift) + 1 in
  (* Sharer words are line-major with a fixed [sw] per line, so the old
     prefix blits flat. *)
  let sharers = Array.make (nlines * t.sw) 0 in
  Array.blit t.sharers 0 sharers 0 (Array.length t.sharers);
  t.sharers <- sharers;
  let line_busy = Array.make nlines 0 in
  Array.blit t.line_busy 0 line_busy 0 (Array.length t.line_busy);
  t.line_busy <- line_busy;
  let block_words = Array.make !size 0 in
  Array.blit t.block_words 0 block_words 0 cur;
  t.block_words <- block_words;
  if Array.length t.block_owner > 0 then begin
    let block_owner = Array.make !size 0 in
    Array.blit t.block_owner 0 block_owner 0 cur;
    t.block_owner <- block_owner
  end;
  let fl_next = Array.make !size 0 in
  Array.blit t.fl_next 0 fl_next 0 cur;
  t.fl_next <- fl_next;
  let lversions = Array.make nlines 0 in
  Array.blit t.lversions 0 lversions 0 (Array.length t.lversions);
  t.lversions <- lversions;
  let lw_tid = Array.make nlines (-1) in
  Array.blit t.lw_tid 0 lw_tid 0 (Array.length t.lw_tid);
  t.lw_tid <- lw_tid;
  if t.wr_on then wr_ensure t

let word_state t addr = Char.code (Bytes.unsafe_get t.state addr)

(* Every committed store bumps the word version (the word-granularity
   conflict plane) and the covering line's version + last-bumper (the
   line-granularity plane {!Htm} can opt into). *)
let bump_version t ctx addr =
  Array.unsafe_set t.versions addr (Array.unsafe_get t.versions addr + 1);
  let line = addr lsr line_shift in
  Array.unsafe_set t.lversions line (Array.unsafe_get t.lversions line + 1);
  Array.unsafe_set t.lw_tid line (Sim.tid ctx);
  t.bumps <- t.bumps + 1

let check_live t addr =
  if addr <= 0 || addr >= t.extent then raise (Fault (Unallocated addr))
  else
    let s = word_state t addr in
    if s <> st_live then
      raise (Fault (if s = st_freed then Use_after_free addr else Unallocated addr))

let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

(* Observe one coherence transfer: the queue-wait histogram, and a [Miss]
   event for the attached sinks. Zero virtual cycles. *)
let observe_miss t ctx ~write ~addr ~line ~sharers ~cost ~wait =
  if wait > 0 then Obs.Metrics.observe t.h_queue_wait wait;
  if observed t then emit t ctx (Miss { write; addr; line; sharers; cost; wait })

(* Coherence miss: an MSI approximation. A miss occupies the line for the
   duration of the transfer ([line_busy]), so contended lines serialize
   their misses — the ping-pong bottleneck that caps the scalability of
   hot-spot structures like queue head/tail words. [sharers] is the
   pre-miss sharer count, which only the [Miss] event carries, so callers
   count it only when a sink listens (0 otherwise); the returned cost
   includes any queuing delay. *)
let miss_cost t ctx ~write ~addr ~line ~sharers ~base =
  let now = Sim.clock ctx in
  let start = Int.max now t.line_busy.(line) in
  let finish = start + base in
  t.line_busy.(line) <- finish;
  observe_miss t ctx ~write ~addr ~line ~sharers ~cost:(finish - now)
    ~wait:(start - now);
  finish - now

let read_cost t ctx addr =
  let tid = Sim.tid ctx in
  let line = addr lsr line_shift in
  let b = slot t tid in
  Obs.Metrics.incr_t t.c_reads tid;
  if t.sw = 1 then begin
    (* Paper-scale heaps: the whole sharer set is one word, exactly the
       historical layout. *)
    let bit = 1 lsl b in
    let s = t.sharers.(line) in
    if s land bit <> 0 then read_hit
    else begin
      t.sharers.(line) <- s lor bit;
      Obs.Metrics.incr_t t.c_read_misses tid;
      miss_cost t ctx ~write:false ~addr ~line
        ~sharers:(if observed t then popcount s else 0)
        ~base:read_miss
    end
  end
  else begin
    let w0 = line * t.sw in
    let wi = w0 + (b / sh_bits) and bit = 1 lsl (b mod sh_bits) in
    let s = t.sharers.(wi) in
    if s land bit <> 0 then read_hit
    else begin
      t.sharers.(wi) <- s lor bit;
      Obs.Metrics.incr_t t.c_read_misses tid;
      let n = ref 0 in
      if observed t then
        for k = w0 to w0 + t.sw - 1 do
          if k = wi then n := !n + popcount s else n := !n + popcount t.sharers.(k)
        done;
      miss_cost t ctx ~write:false ~addr ~line ~sharers:!n
        ~base:read_miss
    end
  end

let write_cost t ctx addr =
  let tid = Sim.tid ctx in
  let line = addr lsr line_shift in
  let b = slot t tid in
  Obs.Metrics.incr_t t.c_writes tid;
  if t.sw = 1 then begin
    let bit = 1 lsl b in
    let s = t.sharers.(line) in
    if s = bit then write_hit
    else begin
      t.sharers.(line) <- bit;
      Obs.Metrics.incr_t t.c_write_misses tid;
      miss_cost t ctx ~write:true ~addr ~line
        ~sharers:(if observed t then popcount s else 0)
        ~base:write_miss
    end
  end
  else begin
    let w0 = line * t.sw in
    let wi = w0 + (b / sh_bits) and bit = 1 lsl (b mod sh_bits) in
    (* Exclusive iff this thread's bit is the only bit in any word. *)
    let exclusive = ref (t.sharers.(wi) = bit) in
    if !exclusive then
      for k = w0 to w0 + t.sw - 1 do
        if k <> wi && t.sharers.(k) <> 0 then exclusive := false
      done;
    if !exclusive then write_hit
    else begin
      let n = ref 0 and obs = observed t in
      for k = w0 to w0 + t.sw - 1 do
        if obs then n := !n + popcount t.sharers.(k);
        t.sharers.(k) <- 0
      done;
      t.sharers.(wi) <- bit;
      Obs.Metrics.incr_t t.c_write_misses tid;
      miss_cost t ctx ~write:true ~addr ~line ~sharers:!n
        ~base:write_miss
    end
  end

(* ---- Store buffers (weak memory plane) -------------------------------

   Under a buffered {!Sim.Memmodel} every plain store enters the issuing
   thread's FIFO buffer and becomes globally visible only at a drain
   point: a fence, an atomic, malloc/free, capacity overflow, or thread
   termination. All the visibility machinery — coherence state, miss
   costs, counters, version bumps, and the access event — fires at drain
   time, so a drain is a real scheduler-visible step the explorer can
   interleave. Under [sc] no buffer is ever touched and every code path
   below collapses to the pre-weak-memory instruction sequence. *)

let buffering t ctx = t.model.Sim.Memmodel.buffered && Sim.tid ctx <> Sim.boot_tid
let sbuf_of t ctx = t.sbufs.(slot t (Sim.tid ctx))

(* Ring primitives: the capacity equals the model's buffer depth (the
   write path drains before pushing at capacity, so it never overflows). *)
let sb_ensure t sb =
  if Array.length sb.sb_addr = 0 then begin
    let cap = max 1 t.model.Sim.Memmodel.sb_depth in
    sb.sb_addr <- Array.make cap 0;
    sb.sb_val <- Array.make cap 0
  end

let sb_pop sb =
  sb.sb_head <- (sb.sb_head + 1) mod Array.length sb.sb_addr;
  sb.sb_len <- sb.sb_len - 1

let sb_push sb addr v =
  let i = (sb.sb_head + sb.sb_len) mod Array.length sb.sb_addr in
  sb.sb_addr.(i) <- addr;
  sb.sb_val.(i) <- v;
  sb.sb_len <- sb.sb_len + 1

(* Make the oldest buffered store visible. The write instruction already
   executed at issue time, so an in-fiber drain that finds its target word
   freed is precisely the delayed-visibility use-after-free the fence
   discipline exists to prevent — report it. A terminal drain (thread
   teardown) has no fiber to fault and drops dead-word stores silently.
   The entry is popped only after the cost is paid: a kill landing inside
   the in-fiber tick leaves it queued for the terminal flush. *)
let drain_one t ctx ~terminal sb =
  if sb.sb_len > 0 then begin
    let addr = sb.sb_addr.(sb.sb_head) and v = sb.sb_val.(sb.sb_head) in
    let dead () = addr <= 0 || addr >= t.extent || word_state t addr <> st_live in
    if dead () then begin
      if terminal then sb_pop sb else check_live t addr
    end
    else begin
      let cost = write_cost t ctx addr in
      if terminal then Sim.charge ctx cost else Sim.tick ctx cost;
      if dead () then begin
        if terminal then sb_pop sb else check_live t addr
      end
      else begin
        sb_pop sb;
        t.values.(addr) <- v;
        bump_version t ctx addr;
        if t.obs_on then observe_store t ctx addr v Op_store
      end
    end
  end

let drain_all t ctx ~terminal sb =
  while sb.sb_len > 0 do
    drain_one t ctx ~terminal sb
  done

(* Lazily install this heap's drain hook on the acting context, so
   [Sim.fence] and thread teardown flush the buffer. Contexts are
   per-[Sim.run]; a buffer whose registered context is stale re-registers
   on the new one. Fence hooks honor the model's [fence_drains] switch
   (the [sb-fence-nop] control); terminal flushes always happen. *)
let ensure_drain_hook t ctx sb =
  let current = match sb.sb_reg with Some c -> c == ctx | None -> false in
  if not current then begin
    sb.sb_reg <- Some ctx;
    Sim.register_drain ctx (fun ~terminal ->
        if terminal || t.model.Sim.Memmodel.fence_drains then
          drain_all t ctx ~terminal sb)
  end

let drain t ctx =
  if buffering t ctx then drain_all t ctx ~terminal:false (sbuf_of t ctx)

let pending_stores t ctx = if buffering t ctx then (sbuf_of t ctx).sb_len else 0

(* The slot of the newest own-buffer entry for [addr] (the ring is
   searched newest-first), or -1. Only consulted when the model forwards
   loads, so the common-model read path never touches it. *)
let sb_find sb addr =
  let cap = Array.length sb.sb_addr in
  let found = ref (-1) and k = ref (sb.sb_len - 1) in
  while !found < 0 && !k >= 0 do
    let i = (sb.sb_head + !k) mod cap in
    if sb.sb_addr.(i) = addr then found := i else decr k
  done;
  !found

let forwarding t ctx =
  t.model.Sim.Memmodel.forward_loads && buffering t ctx
  && (sbuf_of t ctx).sb_len > 0

let read t ctx addr =
  let fwd = if forwarding t ctx then sb_find (sbuf_of t ctx) addr else -1 in
  if fwd >= 0 then begin
    (* Store-to-load forwarding: served from the own buffer, no coherence
       traffic, no miss possible. *)
    let v = (sbuf_of t ctx).sb_val.(fwd) in
    check_live t addr;
    Obs.Metrics.incr_t t.c_reads (Sim.tid ctx);
    Sim.tick ctx read_hit;
    check_live t addr;
    if t.acc_on then emit t ctx (Access (Read { addr; value = v }));
    v
  end
  else begin
    check_live t addr;
    Sim.tick ctx (read_cost t ctx addr);
    check_live t addr;
    let v = t.values.(addr) in
    if t.acc_on then emit t ctx (Access (Read { addr; value = v }));
    v
  end

(* The unbuffered store path — the only one under [sc], and the
   visibility point shared by drains and fenced writes. *)
let write_through t ctx addr v =
  check_live t addr;
  Sim.tick ctx (write_cost t ctx addr);
  check_live t addr;
  t.values.(addr) <- v;
  bump_version t ctx addr;
  if t.obs_on then observe_store t ctx addr v Op_store

let write t ctx addr v =
  if buffering t ctx then begin
    check_live t addr;
    let sb = sbuf_of t ctx in
    sb_ensure t sb;
    ensure_drain_hook t ctx sb;
    if sb.sb_len >= t.model.Sim.Memmodel.sb_depth then
      drain_one t ctx ~terminal:false sb;
    sb_push sb addr v;
    (* The issue itself is a cheap local step; the write's real coherence
       cost is paid when it drains. *)
    Sim.tick ctx write_hit
  end
  else write_through t ctx addr v

let fenced_write t ctx addr v =
  drain t ctx;
  write_through t ctx addr v

let cas t ctx addr ~expected ~desired =
  drain t ctx;
  check_live t addr;
  Obs.Metrics.incr1 t.c_atomics;
  Sim.tick ctx (write_cost t ctx addr + cas_extra);
  check_live t addr;
  let success = t.values.(addr) = expected in
  if success then begin
    t.values.(addr) <- desired;
    bump_version t ctx addr;
    if t.wr_on then note_write t ctx addr Op_atomic
  end
  else if t.wr_on then
    (* A failed CAS is a coherence-plane conflict in its own right: some
       other thread's committed store got between this thread's read of
       [expected] and its attempt to install [desired]. Non-transactional
       lock-free structures (e.g. the ROP queue) surface their contention
       here, so forensics would otherwise be blind to them. Witnessed
       only while the journal can name the aggressor. *)
    record_witness t ctx
      (conflict_witness t ctx ~addr ~victim_wrote:true ~in_read_set:false
         ~in_write_set:true ~site:"mem.cas" ());
  if t.acc_on then emit t ctx (Access (Cas { addr; expected; desired; success }));
  success

let fetch_add t ctx addr d =
  drain t ctx;
  check_live t addr;
  Obs.Metrics.incr1 t.c_atomics;
  Sim.tick ctx (write_cost t ctx addr + cas_extra);
  check_live t addr;
  let old = t.values.(addr) in
  t.values.(addr) <- old + d;
  bump_version t ctx addr;
  if t.wr_on then note_write t ctx addr Op_atomic;
  if t.acc_on then emit t ctx (Access (Fetch_add { addr; delta = d; old }));
  old

let version t addr =
  if addr < 0 || addr >= t.extent then invalid_arg "Simmem.version: out of heap";
  t.versions.(addr)

let peek t addr =
  if addr < 0 || addr >= t.extent then invalid_arg "Simmem.peek: out of heap";
  t.values.(addr)

let is_allocated t addr =
  addr > 0 && addr < t.extent && word_state t addr = st_live

let block_size t addr =
  if addr <= 0 || addr >= Array.length t.block_words then None
  else
    let n = t.block_words.(addr) in
    if n = 0 then None else Some n

(* Free lists are LIFO per exact size, threaded through the heap's own
   base addresses ([fl_next]) with one head per size class ([fl_head],
   grown on demand) — the same pop-newest placement policy as the
   Hashtbl-of-lists this replaces, so allocation addresses (and therefore
   every downstream schedule) are unchanged. *)
let fl_slot t size =
  if size >= Array.length t.fl_head then begin
    let len = ref (Array.length t.fl_head) in
    while size >= !len do
      len := !len * 2
    done;
    let fl_head = Array.make !len 0 in
    Array.blit t.fl_head 0 fl_head 0 (Array.length t.fl_head);
    t.fl_head <- fl_head
  end;
  size

let take_free t size =
  if size >= Array.length t.fl_head then 0
  else begin
    let base = t.fl_head.(size) in
    if base <> 0 then begin
      t.fl_head.(size) <- t.fl_next.(base);
      t.fl_next.(base) <- 0
    end;
    base
  end

(* ---- Per-thread arenas (the [Arena _] policies) ----------------------

   Arena bookkeeping is plain OCaml mutation: it charges no virtual
   cycles beyond what the shared path already charges, so the schedule
   interleavings are decided solely by the (identical) malloc/free tick
   sequence — the placement policy only moves the returned addresses. *)

let arena_fl_push t a gran base =
  if gran >= Array.length a.a_fl_head then begin
    let len = ref (max 64 (Array.length a.a_fl_head)) in
    while gran >= !len do
      len := !len * 2
    done;
    let fl = Array.make !len 0 in
    Array.blit a.a_fl_head 0 fl 0 (Array.length a.a_fl_head);
    a.a_fl_head <- fl
  end;
  t.fl_next.(base) <- a.a_fl_head.(gran);
  a.a_fl_head.(gran) <- base

let arena_take_free t a gran =
  if gran >= Array.length a.a_fl_head then 0
  else begin
    let base = a.a_fl_head.(gran) in
    if base <> 0 then begin
      a.a_fl_head.(gran) <- t.fl_next.(base);
      t.fl_next.(base) <- 0
    end;
    base
  end

(* Move every remotely freed block onto the owner's free lists. Pure
   bookkeeping — zero cycles, no yield — so it is safe at every drain
   point including terminal flushes, and its effects are a deterministic
   function of the enqueue order (itself fixed by the virtual clock). *)
let arena_drain_remote t a =
  while a.a_rq_len > 0 do
    let cap = Array.length a.a_rq_base in
    let base = a.a_rq_base.(a.a_rq_head) and gran = a.a_rq_gran.(a.a_rq_head) in
    a.a_rq_head <- (a.a_rq_head + 1) mod cap;
    a.a_rq_len <- a.a_rq_len - 1;
    arena_fl_push t a gran base
  done

let arena_rq_push a base gran =
  let cap = Array.length a.a_rq_base in
  if a.a_rq_len >= cap then begin
    let ncap = max 64 (cap * 2) in
    let nb = Array.make ncap 0 and ng = Array.make ncap 0 in
    for k = 0 to a.a_rq_len - 1 do
      nb.(k) <- a.a_rq_base.((a.a_rq_head + k) mod cap);
      ng.(k) <- a.a_rq_gran.((a.a_rq_head + k) mod cap)
    done;
    a.a_rq_base <- nb;
    a.a_rq_gran <- ng;
    a.a_rq_head <- 0
  end;
  let cap = Array.length a.a_rq_base in
  let i = (a.a_rq_head + a.a_rq_len) mod cap in
  a.a_rq_base.(i) <- base;
  a.a_rq_gran.(i) <- gran;
  a.a_rq_len <- a.a_rq_len + 1;
  a.a_remote_frees <- a.a_remote_frees + 1

(* The owner's arena, created on first use. The fence-drain hook is
   (re-)installed per context, exactly like the store-buffer hook: remote
   frees parked on the ring become reusable at the owner's next fence or
   allocation. *)
let arena_of t ctx =
  let tid = Sim.tid ctx in
  let i = slot t tid in
  let a =
    match t.arenas.(i) with
    | Some a -> a
    | None ->
      let a =
        {
          a_tid = tid;
          a_cursor = 0;
          a_limit = 0;
          a_carved = 0;
          a_fl_head = [||];
          a_rq_base = [||];
          a_rq_gran = [||];
          a_rq_head = 0;
          a_rq_len = 0;
          a_remote_frees = 0;
          a_reg = None;
        }
      in
      t.arenas.(i) <- Some a;
      a
  in
  let current = match a.a_reg with Some c -> c == ctx | None -> false in
  if not current then begin
    a.a_reg <- Some ctx;
    Sim.register_drain ctx (fun ~terminal:_ -> arena_drain_remote t a)
  end;
  a

(* Carve a fresh chunk off the global bump pointer. Chunks are always
   line-aligned; [Cache_index_aware] additionally colors each thread's
   chunk starts so different arenas land on different line-index residues
   (the stand-in for set-index-aware placement on this flat memory). *)
let arena_carve t a gran =
  let align_line x = (x + line_words - 1) land lnot (line_words - 1) in
  let start =
    let s = align_line t.extent in
    match t.alloc with
    | Arena Cache_index_aware ->
      let color = a.a_tid mod colors in
      let lane = (s lsr line_shift) mod colors in
      s + (((color - lane + colors) mod colors) * line_words)
    | _ -> s
  in
  let chunk = max chunk_min (align_line gran) in
  if start + chunk > Array.length t.values then grow t (start + chunk);
  a.a_carved <- a.a_carved + (start + chunk - t.extent);
  t.extent <- start + chunk;
  a.a_cursor <- start;
  a.a_limit <- start + chunk

let arena_alloc t ctx n =
  let placement = match t.alloc with Arena p -> p | Shared_lifo -> assert false in
  let a = arena_of t ctx in
  arena_drain_remote t a;
  let gran = granule_of placement n in
  let base = arena_take_free t a gran in
  let base =
    if base <> 0 then base
    else begin
      if a.a_cursor + gran > a.a_limit then arena_carve t a gran;
      let b = a.a_cursor in
      a.a_cursor <- b + gran;
      b
    end
  in
  t.block_owner.(base) <- a.a_tid + 1;
  base

let malloc t ctx n =
  if n < 1 then invalid_arg "Simmem.malloc: size must be >= 1";
  (* Allocator entry points are full fences: a pending store must never
     land on a block the allocator is about to recycle. *)
  drain t ctx;
  Sim.tick ctx (malloc_base + (n * malloc_per_word));
  let base =
    if t.alloc <> Shared_lifo then arena_alloc t ctx n
    else begin
      let base = take_free t n in
      if base <> 0 then base
      else begin
        let base = t.extent in
        if base + n > Array.length t.values then grow t (base + n);
        t.extent <- base + n;
        base
      end
    end
  in
  for a = base to base + n - 1 do
    Bytes.unsafe_set t.state a (Char.chr st_live);
    t.values.(a) <- 0;
    bump_version t ctx a
  done;
  t.block_words.(base) <- n;
  if t.wr_on then
    for a = base to base + n - 1 do
      note_write t ctx a Op_malloc
    done;
  Obs.Metrics.add t.g_live_words n;
  Obs.Metrics.add t.g_live_blocks 1;
  Obs.Metrics.incr1 t.c_allocs;
  if observed t then emit t ctx (Access (Malloc { base; words = n }));
  base

let free t ctx base =
  drain t ctx;
  Sim.tick ctx free_cost;
  let n = if base <= 0 || base >= Array.length t.block_words then 0 else t.block_words.(base) in
  if n = 0 then begin
    if base > 0 && base < t.extent && word_state t base = st_freed then
      raise (Fault (Double_free base))
    else raise (Fault (Invalid_free base))
  end
  else begin
    t.block_words.(base) <- 0;
    for a = base to base + n - 1 do
      Bytes.unsafe_set t.state a (Char.chr st_freed);
      bump_version t ctx a
    done;
    if t.wr_on then
      for a = base to base + n - 1 do
        note_write t ctx a Op_free
      done;
    (if t.alloc <> Shared_lifo then begin
       (* The free's semantic effects (state flip, version bumps, fault
          checks) just happened; only *reuse* is routed. An owner free goes
          straight to its arena's lists, a remote free parks on the
          owner's ring until the owner's next allocation or fence. *)
       let placement =
         match t.alloc with Arena p -> p | Shared_lifo -> assert false
       in
       let gran = granule_of placement n in
       let owner = t.block_owner.(base) - 1 in
       let tid = Sim.tid ctx in
       if owner = tid || owner < 0 then arena_fl_push t (arena_of t ctx) gran base
       else
         match t.arenas.(slot t owner) with
         | Some a -> arena_rq_push a base gran
         | None -> arena_fl_push t (arena_of t ctx) gran base
     end
     else begin
       let slot = fl_slot t n in
       t.fl_next.(base) <- t.fl_head.(slot);
       t.fl_head.(slot) <- base
     end);
    Obs.Metrics.add t.g_live_words (-n);
    Obs.Metrics.add t.g_live_blocks (-1);
    Obs.Metrics.incr1 t.c_frees;
    if observed t then emit t ctx (Access (Free { base; words = n }))
  end

module Tx_plane = struct
  (* The unboxed transactional read: returns the word's version (>= 0)
     with the value parked in [t.txr_val], or -1 if the word is dead
     before or after the charged read. The transaction layers read this
     way so the hot path builds no [Some (v, ver)] pair. *)
  let read_ver t ctx addr =
    if addr <= 0 || addr >= t.extent || word_state t addr <> st_live then -1
    else begin
      Sim.tick ctx (read_cost t ctx addr);
      if word_state t addr <> st_live then -1
      else begin
        let v = t.values.(addr) in
        t.txr_val <- v;
        if t.acc_on then emit t ctx (Access (Read { addr; value = v }));
        t.versions.(addr)
      end
    end

  let read_value t = t.txr_val

  let commit_write t ctx addr v =
    if addr <= 0 || addr >= t.extent || word_state t addr <> st_live then false
    else begin
      Sim.charge ctx (write_cost t ctx addr);
      t.values.(addr) <- v;
      bump_version t ctx addr;
      if t.obs_on then observe_store t ctx addr v Op_commit;
      true
    end
end

type granularity = Word | Line

module Read_set = struct
  (* Entries are (address, version noted when it was read), one per
     transactional read: {!note} appends without looking the address up,
     as a hardware read set marks a line whatever it held before.
     Duplicates never change a check. Versions only grow, so a re-read's
     entry follows its address's first entry and notes a version at least
     as new; whenever any entry for an address is stale, its first entry
     is stale too, and the first stale entry in order is always a first
     occurrence.

     - [checked] is the heap's bump count at the last successful full
       check. Versions change only in [bump_version], which advances the
       count, and every entry notes the version current when it was
       added; so an unchanged count means every entry still holds and the
       scan would return [true]. Any bump at all forces the full scan.

     - {!distinct} counts addresses through an open-addressing table
       ([keys]/[stamps], load at most 1/2). A slot is occupied iff its
       stamp equals [gen]; each count bumps [gen], which empties the
       table without clearing it. The table is allocated the first time
       a count needs it, so sets that are never counted never pay for
       it. *)
  type nonrec t = {
    mem : t;
    mutable gran : granularity;
    mutable addrs : int array;
    mutable vers : int array;
    mutable n : int;
    mutable checked : int;
    mutable gen : int;
    mutable keys : int array;
    mutable stamps : int array;
  }

  let create mem gran =
    {
      mem;
      gran;
      addrs = Array.make 64 0;
      vers = Array.make 64 0;
      n = 0;
      checked = -1;
      gen = 0;
      keys = [||];
      stamps = [||];
    }

  let reset rs =
    rs.n <- 0;
    rs.checked <- -1

  let length rs = rs.n
  let addr rs i = rs.addrs.(i)

  let version rs addr =
    match rs.gran with
    | Word -> rs.mem.versions.(addr)
    | Line -> rs.mem.lversions.(addr lsr line_shift)

  let grow rs =
    let n = Array.length rs.addrs in
    let addrs = Array.make (2 * n) 0 and vers = Array.make (2 * n) 0 in
    Array.blit rs.addrs 0 addrs 0 n;
    Array.blit rs.vers 0 vers 0 n;
    rs.addrs <- addrs;
    rs.vers <- vers

  let note rs addr =
    let n = rs.n in
    if n = Array.length rs.addrs then grow rs;
    rs.addrs.(n) <- addr;
    rs.vers.(n) <- version rs addr;
    rs.n <- n + 1

  let slot keys addr =
    let h = addr * 0x9E3779B1 in
    (h lxor (h lsr 17)) land (Array.length keys - 1)

  (* Insert [addr] into the index; [false] if it was already there. *)
  let rec index_add rs addr i =
    if rs.stamps.(i) <> rs.gen then begin
      rs.keys.(i) <- addr;
      rs.stamps.(i) <- rs.gen;
      true
    end
    else if rs.keys.(i) = addr then false
    else index_add rs addr ((i + 1) land (Array.length rs.keys - 1))

  let rec count rs i acc =
    if i >= rs.n then acc
    else
      let a = rs.addrs.(i) in
      count rs (i + 1) (if index_add rs a (slot rs.keys a) then acc + 1 else acc)

  let distinct rs =
    (* [addrs] has a power-of-two length of at least [n] *)
    let cap = 2 * Array.length rs.addrs in
    if Array.length rs.keys < cap then begin
      rs.keys <- Array.make cap 0;
      rs.stamps <- Array.make cap 0
    end;
    rs.gen <- rs.gen + 1;
    count rs 0 0

  (* The first entry, in first-read order, whose version moved, or -1. *)
  let rec scan rs i =
    if i >= rs.n then -1
    else if version rs rs.addrs.(i) <> rs.vers.(i) then rs.addrs.(i)
    else scan rs (i + 1)

  let first_invalid rs = scan rs 0

  let validate rs =
    let bumps = rs.mem.bumps in
    if rs.checked = bumps then true
    else if scan rs 0 >= 0 then false
    else begin
      rs.checked <- bumps;
      true
    end
end

module Tx_desc = struct
  open Txn

  type heap = t

  type 'o t = {
    owner : 'o;
    mem : heap;
    gran : granularity;
    mutable ctx : Sim.tctx;
    mutable busy : bool;
    mutable path : tx_path;
    mutable attempt : int;
    mutable start : int;
    mutable rv : int;
    reads : Read_set.t;
    mutable waddr : int array;
    mutable wval : int array;
    mutable nwrites : int;
    mutable nstores : int;
    mutable frees : int array;
    mutable nfrees : int;
    mutable witness : Obs.Forensics.witness option;
    mutable last_witness : Obs.Forensics.witness option;
  }

  (* The first [atomic] on a thread allocates its descriptor and every
     later one reuses it: the read, write and free sets are arrays that
     only grow. A nested [atomic] finds the pooled one busy and runs on a
     fresh descriptor. *)
  let pool (mem : heap) = Array.make (mem.cap + 1) None

  let acquire pool owner mem gran ctx =
    let i = slot mem (Sim.tid ctx) in
    let d =
      match pool.(i) with
      | Some d when not d.busy ->
        d.ctx <- ctx;
        d
      | pooled ->
        let d =
          {
            owner;
            mem;
            gran;
            ctx;
            busy = false;
            path = P_hw;
            attempt = 0;
            start = 0;
            rv = 0;
            reads = Read_set.create mem gran;
            waddr = Array.make 32 0;
            wval = Array.make 32 0;
            nwrites = 0;
            nstores = 0;
            frees = Array.make 16 0;
            nfrees = 0;
            witness = None;
            last_witness = None;
          }
        in
        if Option.is_none pooled then pool.(i) <- Some d;
        d
    in
    d.busy <- true;
    d.last_witness <- None;
    d

  (* The software path validates word versions whatever granularity the
     hardware path detects conflicts at. *)
  let reset d path attempt =
    d.path <- path;
    d.attempt <- attempt;
    d.start <- Sim.clock d.ctx;
    d.reads.gran <- (match path with P_stm -> Word | P_hw | P_tle -> d.gran);
    Read_set.reset d.reads;
    d.nwrites <- 0;
    d.nstores <- 0;
    d.nfrees <- 0;
    d.witness <- None

  let grow a =
    let n = Array.length a in
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b

  let rec find_from d addr i =
    if i < 0 then -1 else if d.waddr.(i) = addr then i else find_from d addr (i - 1)

  let find_write d addr = find_from d addr (d.nwrites - 1)

  let buffer_write d addr v =
    if d.nwrites = Array.length d.waddr then begin
      d.waddr <- grow d.waddr;
      d.wval <- grow d.wval
    end;
    d.waddr.(d.nwrites) <- addr;
    d.wval.(d.nwrites) <- v;
    d.nwrites <- d.nwrites + 1

  (* Top-level recursion: a local closure over [d] would allocate on
     every commit. *)
  let rec freed_from d i =
    if i >= d.nwrites then -1
    else if is_allocated d.mem d.waddr.(i) then freed_from d (i + 1)
    else d.waddr.(i)

  let first_freed_write d = freed_from d 0

  (* Commit points only: apply the write buffer, oldest first, through the
     transactional plane, which never yields. *)
  let write_back d =
    for i = 0 to d.nwrites - 1 do
      let ok = Tx_plane.commit_write d.mem d.ctx d.waddr.(i) d.wval.(i) in
      assert ok
    done

  let defer_free d base =
    if d.nfrees = Array.length d.frees then d.frees <- grow d.frees;
    d.frees.(d.nfrees) <- base;
    d.nfrees <- d.nfrees + 1

  let run_frees d =
    for i = 0 to d.nfrees - 1 do
      free d.mem d.ctx d.frees.(i)
    done;
    d.nfrees <- 0

  let set_witness d ?lookup ?aggressor ~addr ~victim_wrote ~in_read_set ~in_write_set
      site =
    d.witness <-
      Some
        (conflict_witness d.mem d.ctx ~addr ?lookup ?aggressor ~victim_wrote
           ~in_read_set ~in_write_set ~site ())

  let witness_invalid_read d site =
    let addr = Read_set.first_invalid d.reads in
    addr >= 0
    && begin
      let wrote = find_write d addr >= 0 in
      set_witness d ~addr ~victim_wrote:wrote ~in_read_set:true ~in_write_set:wrote site;
      true
    end

  (* Events are built only when a sink is attached. *)
  let emit_commit d =
    if observed d.mem then
      emit d.mem d.ctx
        (Tx
           (Tx_commit
              {
                tx_reads = Read_set.distinct d.reads;
                tx_writes = d.nwrites;
                tx_path = d.path;
                tx_attempt = d.attempt;
                tx_start = d.start;
              }))

  let settle_abort d r =
    let w = d.witness in
    d.witness <- None;
    (match w with Some wit -> record_witness d.mem d.ctx wit | None -> ());
    d.last_witness <- w;
    if observed d.mem then
      emit d.mem d.ctx
        (Tx
           (Tx_abort
              {
                ab_reason = r;
                ab_path = d.path;
                ab_attempt = d.attempt;
                ab_witness = w;
                ab_start = d.start;
              }))

  (* ---- The attempt loop, shared by the hardware and software paths. *)

  type 'o path = {
    tag : tx_path;
    begin_cost : int;
    abort_cost : int;
    start : 'o t -> unit;
    commit : 'o t -> unit;
    stop : 'o t -> int -> abort_reason -> bool;
    attempts : Obs.Metrics.counter;
    commits : Obs.Metrics.counter;
    aborts : Obs.Metrics.counter array;
    sizes : Obs.Metrics.hist;
    cycles : Obs.Metrics.hist option;
    overflow_escalates : bool;
  }

  let reason_index = function
    | Conflict -> 0
    | Overflow -> 1
    | Illegal -> 2
    | Explicit -> 3
    | Lock_held -> 4
    | Spurious -> 5

  (* The slot of every reason a path never raises: registered nowhere. *)
  let unattributed = Obs.Metrics.counter (Obs.Metrics.create ()) "never raised"

  let abort_counters reg named =
    let table = Array.make 6 unattributed in
    List.iter
      (fun (r, name) ->
        table.(reason_index r) <- Obs.Metrics.counter ~per_thread:true reg name)
      named;
    table

  let aborts table r = Obs.Metrics.value table.(reason_index r)

  let backoff_base = 60
  let backoff_max = 16384

  let backoff ctx n =
    Sim.tick ctx (Sim.Backoff.delay ~base:backoff_base ~cap:backoff_max (Sim.rng ctx) n)

  let ex_exhausted =
    Array.map (fun r -> Retry_exhausted r)
      [| Conflict; Overflow; Illegal; Explicit; Lock_held; Spurious |]

  (* Top-level recursion, so a pooled transaction's whole fast path —
     begin, body, commit — allocates nothing: one attempt is a handful of
     array stores and unboxed arithmetic unless it aborts. *)
  let rec loop p d f on_abort t0 n last =
    if p.stop d n last then begin
      d.attempt <- n;
      raise ex_exhausted.(reason_index last)
    end;
    let ctx = d.ctx and tid = Sim.tid d.ctx in
    (* Small cost jitter models real-hardware timing noise; without it,
       deterministic costs let the backoff phase-lock contending threads
       into conflict-free lockstep that a real machine's pipeline and
       interrupt noise would constantly break. *)
    Sim.tick ctx (p.begin_cost + Sim.Rng.int (Sim.rng ctx) 16);
    (* Strong atomicity (paper §6): transaction begin is a full fence, so
       the thread's pre-transaction stores are visible before any
       transactional read (which would otherwise miss them, or validate
       against state the thread is about to overwrite). Commits write
       through [Tx_plane]; transactional stores never linger in a buffer.
       No-op under the [sc] model. *)
    drain d.mem ctx;
    reset d p.tag n;
    Obs.Metrics.incr_t p.attempts tid;
    match
      p.start d;
      let v = f d in
      p.commit d;
      v
    with
    | v ->
      Obs.Metrics.incr_t p.commits tid;
      (* store-buffer slots on hardware, buffered writes in software *)
      Obs.Metrics.observe p.sizes
        (match p.tag with P_hw -> d.nstores | P_stm | P_tle -> d.nwrites);
      (match p.cycles with
       | Some h -> Obs.Metrics.observe h (Sim.clock ctx - t0)
       | None -> ());
      emit_commit d;
      run_frees d;
      Sim.note_progress ctx;
      v
    | exception Aborted r ->
      Obs.Metrics.incr_t p.aborts.(reason_index r) tid;
      settle_abort d r;
      Sim.tick ctx p.abort_cost;
      on_abort r;
      (match r with Overflow when p.overflow_escalates -> () | _ -> backoff ctx n);
      loop p d f on_abort t0 (n + 1) r

  let run p d f on_abort = loop p d f on_abort (Sim.clock d.ctx) 0 Conflict
end
