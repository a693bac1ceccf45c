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
   lines — the knob the malloc-placement ablation turns.

   The state (the policy, the free lists, the arenas, the per-base block
   tables) lives in the heap record ({!Heap.t}); this file is the code. *)

open Heap

let malloc_base = 80
let malloc_per_word = 2
let free_cost = 60

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
  | Line_isolated | Cache_index_aware -> (n + line_words - 1) land lnot (line_words - 1)

let block_size t addr =
  if addr <= 0 || addr >= Array.length t.block_words then None
  else
    let n = t.block_words.(addr) in
    if n = 0 then None else Some n

(* Free lists are LIFO per exact size class, threaded through the heap's
   own base addresses ([fl_next]), with heads grown on demand — the same
   pop-newest placement policy as the Hashtbl-of-lists they replace, so
   allocation addresses (and therefore every downstream schedule) are
   unchanged. The shared allocator and every arena pop and push alike. *)
let fl_pop t fl c =
  if c >= Array.length fl.heads then 0
  else begin
    let base = fl.heads.(c) in
    if base <> 0 then begin
      fl.heads.(c) <- t.fl_next.(base);
      t.fl_next.(base) <- 0
    end;
    base
  end

let fl_push t fl c base =
  if c >= Array.length fl.heads then
    fl.heads <- extend fl.heads (doubling (max 64 (Array.length fl.heads)) c) 0;
  t.fl_next.(base) <- fl.heads.(c);
  fl.heads.(c) <- base

(* ---- Per-thread arenas (the [Arena _] policies) ----------------------

   Arena bookkeeping is plain OCaml mutation: it charges no virtual
   cycles beyond what the shared path already charges, so the schedule
   interleavings are decided solely by the (identical) malloc/free tick
   sequence — the placement policy only moves the returned addresses. *)

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
    fl_push t a.a_fl gran base
  done

(* The ring re-packs from its head when it grows. *)
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
          a_fl = { heads = [||] };
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
let arena_carve t placement a gran =
  let align_line x = (x + line_words - 1) land lnot (line_words - 1) in
  let start =
    let s = align_line t.extent in
    match placement with
    | Cache_index_aware ->
      let color = a.a_tid mod colors in
      let lane = (s lsr line_shift) mod colors in
      s + (((color - lane + colors) mod colors) * line_words)
    | Line_packed | Line_isolated -> s
  in
  let chunk = max chunk_min (align_line gran) in
  if start + chunk > Array.length t.values then grow t (start + chunk);
  a.a_carved <- a.a_carved + (start + chunk - t.extent);
  t.extent <- start + chunk;
  a.a_cursor <- start;
  a.a_limit <- start + chunk

let arena_alloc t ctx placement n =
  let a = arena_of t ctx in
  arena_drain_remote t a;
  let gran = granule_of placement n in
  let base = fl_pop t a.a_fl gran in
  let base =
    if base <> 0 then base
    else begin
      if a.a_cursor + gran > a.a_limit then arena_carve t placement a gran;
      let b = a.a_cursor in
      a.a_cursor <- b + gran;
      b
    end
  in
  t.block_owner.(base) <- a.a_tid + 1;
  base

(* The free's semantic effects (state flip, version bumps, fault checks)
   have happened; only *reuse* is routed. An owner free goes straight to
   its arena's lists, a remote free parks on the owner's ring until the
   owner's next allocation or fence. *)
let arena_release t ctx placement base n =
  let gran = granule_of placement n in
  let owner = t.block_owner.(base) - 1 in
  if owner = Sim.tid ctx || owner < 0 then fl_push t (arena_of t ctx).a_fl gran base
  else
    match t.arenas.(slot t owner) with
    | Some a -> arena_rq_push a base gran
    | None -> fl_push t (arena_of t ctx).a_fl gran base

let malloc t ctx n =
  if n < 1 then invalid_arg "Simmem.malloc: size must be >= 1";
  (* Allocator entry points are full fences: a pending store must never
     land on a block the allocator is about to recycle. *)
  drain t ctx;
  Sim.tick ctx (malloc_base + (n * malloc_per_word));
  let base =
    match t.alloc with
    | Arena placement -> arena_alloc t ctx placement n
    | Shared_lifo ->
      let base = fl_pop t t.fl n in
      if base <> 0 then base
      else begin
        let base = t.extent in
        if base + n > Array.length t.values then grow t (base + n);
        t.extent <- base + n;
        base
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
    (match t.alloc with
     | Arena placement -> arena_release t ctx placement base n
     | Shared_lifo -> fl_push t t.fl n base);
    Obs.Metrics.add t.g_live_words (-n);
    Obs.Metrics.add t.g_live_blocks (-1);
    Obs.Metrics.incr1 t.c_frees;
    if observed t then emit t ctx (Access (Free { base; words = n }))
  end
