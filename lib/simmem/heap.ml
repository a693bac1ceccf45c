(* The heap core: words, slots, the event stream, the last-writer journal,
   coherence costs, store buffers, the access path and the transactional
   plane. The allocator ({!Alloc}) and the sinks ({!Sinks}) sit on top. *)

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

(* Word allocation state. [Freed] words remember that they were once live so
   that a dangling access is reported as use-after-free, not unallocated. *)
let st_never = 0
let st_live = 1
let st_freed = 2

let line_shift = 3 (* 8 words per line *)
let line_words = 1 lsl line_shift

(* [a] extended to [len] slots, the new ones [fill]: the one growth step
   of every table that only grows. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let extend_bytes a len fill =
  let b = Bytes.make len fill in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

(* The first doubling of [len] that exceeds [i]. *)
let rec doubling len i = if i < len then len else doubling (2 * len) i

(* The allocator's state is part of the heap record; its policy is
   described, and its operations live, in {!Alloc}. *)
type placement =
  | Line_packed (* contiguous bump: blocks share lines, maximal false sharing *)
  | Line_isolated (* every block starts a fresh line and owns it entirely *)
  | Cache_index_aware (* line-isolated + per-thread chunk coloring *)

type alloc_policy = Shared_lifo | Arena of placement

(* Minimum chunk an arena carves from the global extent, in words. *)
let chunk_min = 512

(* [Cache_index_aware] spreads chunk starts over this many line-index
   residues. *)
let colors = 8

(* LIFO free lists, one head per size class, threaded through the heap's
   [fl_next]; shared by every thread under [Shared_lifo], one per arena
   otherwise. *)
type free_lists = { mutable heads : int array }

(* Per-thread arena. All state is flat ints/arrays: the steady-state
   malloc/free path allocates nothing on the OCaml heap (the remote ring
   doubles amortized, like the heap arrays themselves). *)
type arena = {
  a_tid : int;
  mutable a_cursor : int; (* next unused word of the current chunk *)
  mutable a_limit : int; (* end of the current chunk (exclusive) *)
  mutable a_carved : int; (* total words this arena took off the global extent *)
  a_fl : free_lists; (* per granule *)
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
      attempt : int;
    }
  | Tx of Txn.tx_event
  | Sched of Sim.event

type sink = {
  fold : tid:int -> clock:int -> event -> unit;
  accesses : bool;
  journal : bool;
}

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
  fl : free_lists; (* per size, under [Shared_lifo] *)
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
    fl = { heads = Array.make 64 0 };
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
    t.wr_tid <- extend t.wr_tid n no_writer;
    t.wr_kind <- extend_bytes t.wr_kind n '\000';
    t.wr_clock <- extend t.wr_clock n 0
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
  let size = doubling (Array.length t.values) (needed - 1) in
  let nlines = (size lsr line_shift) + 1 in
  t.values <- extend t.values size 0;
  t.versions <- extend t.versions size 0;
  t.state <- extend_bytes t.state size (Char.chr st_never);
  (* Sharer words are line-major with a fixed [sw] per line, so the old
     prefix carries over flat. *)
  t.sharers <- extend t.sharers (nlines * t.sw) 0;
  t.line_busy <- extend t.line_busy nlines 0;
  t.block_words <- extend t.block_words size 0;
  if Array.length t.block_owner > 0 then t.block_owner <- extend t.block_owner size 0;
  t.fl_next <- extend t.fl_next size 0;
  t.lversions <- extend t.lversions nlines 0;
  t.lw_tid <- extend t.lw_tid nlines (-1);
  if t.wr_on then wr_ensure t

let word_state t addr = Char.code (Bytes.unsafe_get t.state addr)

let[@inline] is_allocated t addr = addr > 0 && addr < t.extent && word_state t addr = st_live

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
    let live =
      is_allocated t addr
      && begin
        let cost = write_cost t ctx addr in
        if terminal then Sim.charge ctx cost else Sim.tick ctx cost;
        is_allocated t addr
      end
    in
    if not live then begin if terminal then sb_pop sb else check_live t addr end
    else begin
      sb_pop sb;
      t.values.(addr) <- v;
      bump_version t ctx addr;
      if t.obs_on then observe_store t ctx addr v Op_store
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
  check_live t addr;
  let v =
    if fwd >= 0 then begin
      (* Store-to-load forwarding: served from the own buffer, no coherence
         traffic, no miss possible. *)
      let v = (sbuf_of t ctx).sb_val.(fwd) in
      Obs.Metrics.incr_t t.c_reads (Sim.tid ctx);
      Sim.tick ctx read_hit;
      check_live t addr;
      v
    end
    else begin
      Sim.tick ctx (read_cost t ctx addr);
      check_live t addr;
      t.values.(addr)
    end
  in
  if t.acc_on then emit t ctx (Access (Read { addr; value = v }));
  v

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

(* An atomic is a full fence, then a store's cost plus the atomic penalty. *)
let atomic_access t ctx addr =
  drain t ctx;
  check_live t addr;
  Obs.Metrics.incr1 t.c_atomics;
  Sim.tick ctx (write_cost t ctx addr + cas_extra);
  check_live t addr

let cas t ctx addr ~expected ~desired =
  atomic_access t ctx addr;
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
  atomic_access t ctx addr;
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

module Tx_plane = struct
  (* The unboxed transactional read: returns the word's version (>= 0)
     with the value parked in [t.txr_val], or -1 if the word is dead
     before or after the charged read. The transaction layers read this
     way so the hot path builds no [Some (v, ver)] pair. *)
  let read_ver t ctx addr =
    if not (is_allocated t addr) then -1
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
    if not (is_allocated t addr) then false
    else begin
      Sim.charge ctx (write_cost t ctx addr);
      t.values.(addr) <- v;
      bump_version t ctx addr;
      if t.obs_on then observe_store t ctx addr v Op_commit;
      true
    end
end

