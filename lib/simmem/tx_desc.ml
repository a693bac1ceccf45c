(* One transaction attempt's state on any path, the per-thread pool, and
   the attempt loop both paths run. *)

open Heap
open Txn

type 'o t = {
  owner : 'o;
  mem : Heap.t;
  gran : Read_set.granularity;
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
  mutable tle_reads : int;
  mutable tle_writes : int;
  mutable frees : int array;
  mutable nfrees : int;
  mutable witness : Obs.Forensics.witness option;
  mutable last_witness : Obs.Forensics.witness option;
}

(* The first [atomic] on a thread allocates its descriptor and every
   later one reuses it: the read, write and free sets are arrays that
   only grow. A nested [atomic] finds the pooled one busy and runs on a
   fresh descriptor. *)
let pool (mem : Heap.t) = Array.make (mem.cap + 1) None

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
          tle_reads = 0;
          tle_writes = 0;
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
  d.reads.gran <- (match path with P_stm -> Read_set.Word | P_hw | P_tle -> d.gran);
  Read_set.reset d.reads;
  d.nwrites <- 0;
  d.nstores <- 0;
  d.tle_reads <- 0;
  d.tle_writes <- 0;
  d.nfrees <- 0;
  d.witness <- None

let grow a = extend a (2 * Array.length a) 0

let rec find_from d addr i =
  if i < 0 then -1 else if d.waddr.(i) = addr then i else find_from d addr (i - 1)

(* Inlined: a read-only transaction's empty buffer answers without a call. *)
let[@inline] find_write d addr = if d.nwrites = 0 then -1 else find_from d addr (d.nwrites - 1)

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
    Alloc.free d.mem d.ctx d.frees.(i)
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

(* Events are built only when a sink is attached. The lock path keeps no
   read or write set: it reports the accesses it issued. *)
let emit_commit d =
  if observed d.mem then
    emit d.mem d.ctx
      (Tx
         (Tx_commit
            {
              tx_reads =
                (match d.path with P_tle -> d.tle_reads | P_hw | P_stm -> Read_set.distinct d.reads);
              tx_writes = (match d.path with P_tle -> d.tle_writes | P_hw | P_stm -> d.nwrites);
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

(* The slot of every reason a path never raises: registered nowhere. *)
let unattributed = Obs.Metrics.counter (Obs.Metrics.create ()) "never raised"

let abort_counters reg named =
  let table = Array.make (Array.length reasons) unattributed in
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
