module Rng = Rng
module Ibuf = Ibuf
module Fault = Fault

exception Stop_thread
exception Watchdog of string

(* The memory-consistency variant matrix (see docs/MEMORY_ORDERING.md).
   [Sim] owns the type so that layers above ([Simmem], the explorer, the
   CLI) agree on one vocabulary, but the semantics live entirely in
   [Simmem]'s store buffers; the scheduler itself is model-agnostic. *)
module Memmodel = struct
  type t = {
    buffered : bool;  (* per-thread FIFO store buffer active *)
    sb_depth : int;  (* buffer capacity; a full buffer drains its oldest entry *)
    forward_loads : bool;  (* loads see the newest own-buffer entry *)
    fence_drains : bool;  (* fences drain the buffer (off = bug-finding control) *)
  }

  let sc = { buffered = false; sb_depth = 0; forward_loads = false; fence_drains = true }
  let sb = { buffered = true; sb_depth = 8; forward_loads = true; fence_drains = true }
  let sb_bypass = { sb with forward_loads = false }
  let sb_fence_nop = { sb with fence_drains = false }

  let all =
    [ ("sc", sc); ("sb", sb); ("sb-bypass", sb_bypass); ("sb-fence-nop", sb_fence_nop) ]

  (* Field-wise equality: the polymorphic [=] this replaces walks the
     record generically on every [to_string]. *)
  let equal a b =
    a.buffered = b.buffered && a.sb_depth = b.sb_depth
    && a.forward_loads = b.forward_loads
    && a.fence_drains = b.fence_drains

  let to_string m =
    match List.find_opt (fun (_, v) -> equal v m) all with
    | Some (name, _) -> name
    | None ->
      Printf.sprintf "custom[depth=%d,forward=%b,fence=%b]" m.sb_depth m.forward_loads
        m.fence_drains

  let of_string name = List.assoc_opt name all
end

(* Simulated-thread ceiling. Sharer sets in Simmem are multi-word bitmasks
   sized to each heap's configured thread capacity (61 threads in one word
   for paper-scale runs, more words beyond that — see lib/simmem), so the
   scheduler itself no longer caps the thread count at a word's bits.
   Exploring-mode features ([record], non-min-clock strategies) still
   encode runnable sets as single-word masks and are guarded to 61. *)
let max_threads = 256
let boot_tid = max_threads

(* Threads a single-word bitmask can describe: the explore/recorder layer
   and default sharer sets use [1 lsl tid] directly. *)
let mask_threads = 61

(* The ready queue: the parked threads grouped by clock, one group per
   distinct clock, each with the mask of the tids parked at it. The
   groups sit in a ring in ascending clock order, the minimum at [head],
   so a park is one sorted insert and the min-clock pick reads the head
   group.

   The pick replays the reservoir scan that [pick_min] (sim.mli)
   specifies without visiting every thread. With [p] the head group's
   lowest tid (the scan's first argmin) and [M] its clock:
   - every other tid at [M] lies above [p] and draws [Rng.int rng t],
     [t = 2, 3, ...], in ascending tid order;
   - a tid below [p] draws only when it ties the running minimum of the
     tids before it: that is a group's second, third, ... tid below the
     lowest tid of every smaller clock. [p] overwrites those draws, so
     they only advance the RNG, in one [Rng.skip] before the draws at
     [M]. [dmask], the tids of the groups with two or more, bounds the
     walk that counts them: with fewer than two such tids below [p] no
     group can draw, and most picks stop there.
   A mask is [w = ceil (n / 62)] words of 62 tids; tid [i] is bit
   [i mod 62] of word [i / 62]. Runs of up to 62 threads, all the
   paper's, take the one-word paths. *)
module Ready = struct
  type t = {
    w : int;
    cmask : int;  (* ring capacity - 1; the capacity is a power of two >= n *)
    clk : int array;  (* each slot's clock *)
    msk : int array;  (* each slot's tid mask, [w] words from [slot * w] *)
    mutable head : int;  (* the slot of the minimum clock *)
    mutable len : int;  (* groups *)
    dmask : int array;  (* the tids of the groups with two or more, [w] words *)
    mutable second : int;  (* set by [pick]: the second-smallest clock with multiplicity *)
  }

  let bits = 62

  let create n =
    let n = max 1 n in
    let w = (n + bits - 1) / bits in
    let cap = ref 1 in
    while !cap < n do
      cap := 2 * !cap
    done;
    { w; cmask = !cap - 1; clk = Array.make !cap 0; msk = Array.make (!cap * w) 0; head = 0;
      len = 0; dmask = Array.make w 0; second = max_int }

  (* The index of the one set bit of [b] (a power of two below 2^62): a
     de Bruijn multiply on the unboxed 64-bit product, then a table. *)
  let[@inline] db_index b = Int64.(to_int (shift_right_logical (mul b 0x03f79d71b4cb0a89L) 58))

  let db_table =
    let t = Bytes.make 64 '\000' in
    for i = 0 to bits - 1 do
      Bytes.set t (db_index (Int64.shift_left 1L i)) (Char.chr i)
    done;
    Bytes.unsafe_to_string t

  let[@inline] ctz_bit b = Char.code (String.unsafe_get db_table (db_index (Int64.of_int b)))

  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

  let[@inline] slot q j = (q.head + j) land q.cmask

  (* The one-word paths. *)

  (* [bit] joins the group at slot [s]. A group of one becomes a group of
     two: both tids enter [dmask]. *)
  let[@inline] join1 q s bit =
    let m = Array.unsafe_get q.msk s in
    Array.unsafe_set q.dmask 0 (Array.unsafe_get q.dmask 0 lor m lor bit);
    Array.unsafe_set q.msk s (m lor bit)

  (* [tid] parks at clock [c]. Groups with smaller clocks than [c] move
     one slot toward the head as the search passes them: a resumed
     thread runs until it passes the second minimum, so it mostly lands
     a few groups behind the head. A thread that lands behind every
     group (every resume of the scheduler ladder) is appended at the
     back. Slots are masked by [cmask], so the accesses are unchecked. *)
  let add1 q tid c =
    let bit = 1 lsl tid and clk = q.clk and msk = q.msk and cm = q.cmask in
    let h = q.head and len = q.len in
    let back = (h + len - 1) land cm in
    if len = 0 || Array.unsafe_get clk back < c then begin
      let s = (back + 1) land cm in
      Array.unsafe_set clk s c;
      Array.unsafe_set msk s bit;
      q.len <- len + 1
    end
    else if Array.unsafe_get clk back = c then join1 q back bit
    else begin
      let start = (h - 1) land cm in
      let hole = ref start and j = ref h in
      while Array.unsafe_get clk !j < c do
        Array.unsafe_set clk !hole (Array.unsafe_get clk !j);
        Array.unsafe_set msk !hole (Array.unsafe_get msk !j);
        hole := !j;
        j := (!j + 1) land cm
      done;
      if Array.unsafe_get clk !j = c then begin
        (* Move the passed groups back. *)
        while !hole <> start do
          let s = (!hole - 1) land cm in
          Array.unsafe_set clk !hole (Array.unsafe_get clk s);
          Array.unsafe_set msk !hole (Array.unsafe_get msk s);
          hole := s
        done;
        join1 q !j bit
      end
      else begin
        Array.unsafe_set clk !hole c;
        Array.unsafe_set msk !hole bit;
        q.head <- start;
        q.len <- len + 1
      end
    end

  (* The overwritten draws below the head's lowest tid [low] (an
     isolated bit), with [dup] the dup tids below it. Every tid left in
     [dup] sits in a group not yet visited, so the walk ends before the
     back unless [dmask] holds a tid it should not. *)
  let overwritten1 q low dup =
    let k = ref 0 and low = ref low and dup = ref dup and j = ref 1 in
    while !dup land (!dup - 1) <> 0 do
      assert (!j < q.len);
      let g = Array.unsafe_get q.msk (slot q !j) in
      let below = g land (!low - 1) in
      if below land (below - 1) <> 0 then k := !k + popcount below - 1;
      let gl = g land -g in
      if gl < !low then begin
        low := gl;
        dup := !dup land (gl - 1)
      end;
      incr j
    done;
    !k

  let pick1 q rng =
    let h = q.head in
    let m0 = Array.unsafe_get q.msk h in
    let p = m0 land -m0 in
    let dup = Array.unsafe_get q.dmask 0 land (p - 1) in
    if dup land (dup - 1) <> 0 then Rng.skip rng (overwritten1 q p dup);
    let rest = m0 lxor p in
    if rest = 0 then begin
      let h = (h + 1) land q.cmask and len = q.len - 1 in
      q.head <- h;
      q.len <- len;
      q.second <- (if len = 0 then max_int else Array.unsafe_get q.clk h);
      ctz_bit p
    end
    else begin
      let c = ref p and t = ref 1 and r = ref rest in
      while !r <> 0 do
        let b = !r land - !r in
        incr t;
        if Rng.int rng !t = 0 then c := b;
        r := !r lxor b
      done;
      Array.unsafe_set q.msk h (m0 lxor !c);
      (* A group of two leaves one tid, which leaves [dmask] too. *)
      Array.unsafe_set q.dmask 0 (Array.unsafe_get q.dmask 0 land lnot (if !t = 2 then m0 else !c));
      q.second <- Array.unsafe_get q.clk h;
      ctz_bit !c
    end

  (* The multi-word paths. *)

  (* Set bits of the [w] words from [a.(off)] that stand for tids below
     [lim], counted up to [cap]. *)
  let count_below q a off lim cap =
    let c = ref 0 and j = ref 0 in
    while !c < cap && !j < q.w && !j * bits < lim do
      let x = a.(off + !j) and r = lim - (!j * bits) in
      c := !c + popcount (if r >= bits then x else x land ((1 lsl r) - 1));
      incr j
    done;
    min !c cap

  let lowest q off =
    let j = ref 0 in
    while q.msk.(off + !j) = 0 do
      incr j
    done;
    let x = q.msk.(off + !j) in
    (!j * bits) + ctz_bit (x land -x)

  let move q src dst =
    q.clk.(dst) <- q.clk.(src);
    Array.blit q.msk (src * q.w) q.msk (dst * q.w) q.w

  let addw q tid c =
    let w = q.w and wi = tid / bits and bit = 1 lsl (tid mod bits) in
    let k = ref q.len in
    if q.len > 0 && q.clk.(slot q (q.len - 1)) >= c then begin
      k := 0;
      while q.clk.(slot q !k) < c do
        incr k
      done
    end;
    if !k < q.len && q.clk.(slot q !k) = c then begin
      let off = slot q !k * w in
      for i = 0 to w - 1 do
        q.dmask.(i) <- q.dmask.(i) lor q.msk.(off + i)
      done;
      q.dmask.(wi) <- q.dmask.(wi) lor bit;
      q.msk.(off + wi) <- q.msk.(off + wi) lor bit
    end
    else begin
      (* Groups [0, k) move one slot toward the head, unless [k] is the
         back. *)
      if !k < q.len then begin
        q.head <- (q.head - 1) land q.cmask;
        for j = 0 to !k - 1 do
          move q (slot q (j + 1)) (slot q j)
        done
      end;
      let s = slot q !k in
      q.len <- q.len + 1;
      q.clk.(s) <- c;
      Array.fill q.msk (s * w) w 0;
      q.msk.((s * w) + wi) <- bit
    end

  let overwrittenw q p =
    let k = ref 0 and low = ref p and j = ref 1 in
    while count_below q q.dmask 0 !low 2 >= 2 do
      assert (!j < q.len);
      let off = slot q !j * q.w in
      let below = count_below q q.msk off !low max_int in
      if below >= 2 then k := !k + below - 1;
      low := min !low (lowest q off);
      incr j
    done;
    !k

  let pickw q rng =
    let h = q.head and w = q.w in
    let off = h * w in
    let p = lowest q off in
    if count_below q q.dmask 0 p 2 >= 2 then Rng.skip rng (overwrittenw q p);
    let c = ref p and t = ref 1 in
    for k = p / bits to w - 1 do
      let x = q.msk.(off + k) in
      let r = ref (if k = p / bits then x lxor (1 lsl (p mod bits)) else x) in
      while !r <> 0 do
        let b = !r land - !r in
        incr t;
        if Rng.int rng !t = 0 then c := (k * bits) + ctz_bit b;
        r := !r lxor b
      done
    done;
    let wi = !c / bits and bit = 1 lsl (!c mod bits) in
    if !t = 1 then begin
      q.head <- (h + 1) land q.cmask;
      q.len <- q.len - 1;
      q.second <- (if q.len = 0 then max_int else q.clk.(q.head))
    end
    else begin
      if !t = 2 then
        for k = 0 to w - 1 do
          q.dmask.(k) <- q.dmask.(k) land lnot q.msk.(off + k)
        done
      else q.dmask.(wi) <- q.dmask.(wi) lxor bit;
      q.msk.(off + wi) <- q.msk.(off + wi) lxor bit;
      q.second <- q.clk.(h)
    end;
    !c

  (* [tid] parks at clock [c]. *)
  let[@inline] add q tid c = if q.w = 1 then add1 q tid c else addw q tid c

  (* The min-clock pick: removes and returns the chosen tid, [-1] if the
     queue is empty, and sets [second]. *)
  let[@inline] pick q rng =
    if q.len = 0 then begin
      q.second <- max_int;
      -1
    end
    else if q.w = 1 then pick1 q rng
    else pickw q rng

  (* The position of [tid]'s group, or -1. *)
  let position q tid =
    let wi = tid / bits and bit = 1 lsl (tid mod bits) in
    let rec go j =
      if j = q.len then -1
      else if q.msk.((slot q j * q.w) + wi) land bit <> 0 then j
      else go (j + 1)
    in
    go 0

  let mem q tid = position q tid >= 0

  (* Removes a parked [tid] wherever it sits (an exploring strategy's
     choice). *)
  let remove q tid =
    let j = position q tid in
    let off = slot q j * q.w in
    let wi = tid / bits and bit = 1 lsl (tid mod bits) in
    match count_below q q.msk off max_int 3 with
    | 1 ->
      for k = j to q.len - 2 do
        move q (slot q (k + 1)) (slot q k)
      done;
      q.len <- q.len - 1
    | t ->
      if t = 2 then
        for k = 0 to q.w - 1 do
          q.dmask.(k) <- q.dmask.(k) land lnot q.msk.(off + k)
        done
      else q.dmask.(wi) <- q.dmask.(wi) land lnot bit;
      q.msk.(off + wi) <- q.msk.(off + wi) land lnot bit

  (* Every parked tid, for runs of one mask word. *)
  let union q =
    assert (q.w = 1);
    let m = ref 0 in
    for j = 0 to q.len - 1 do
      m := !m lor q.msk.(slot q j)
    done;
    !m
end

type _ Effect.t += Yield : unit Effect.t

type event = Slice of int | Fault of Fault.event_kind
type observer = tid:int -> clock:int -> event -> unit

type tctx = {
  ctx_tid : int;
  mutable clock : int;
  ctx_rng : Rng.t;
  mutable sched : sched option;
  mutable faults : Fault.t option;
  mutable shield_depth : int;
  mutable last_progress : int;
  (* The run's observer of slices and faults: it charges no virtual
     cycles, draws no simulator RNG and never forces exploring mode, so an
     observed run is cycle-identical to a bare one. *)
  ctx_observe : observer option;
  (* Drain hooks installed by memory layers with store buffers ({!Simmem}):
     [fence] runs them with [~terminal:false]; thread termination (normal
     return or a kill) runs them with [~terminal:true], where they must not
     tick or yield — the fiber is past its last scheduling point. Under the
     [sc] model no hook is ever registered, so [fence] degenerates to a
     plain [tick] and stays cycle-identical to the pre-weak-memory code. *)
  mutable ctx_drains : (terminal:bool -> unit) list;
}

and sched = {
  ctxs : tctx array;
  (* The parked threads by clock ([Ready]). The running thread is not in
     it: the loop adds it back after its slice, unless it finished. *)
  ready : Ready.t;
  (* Each parked thread's continuation; a slot is meaningful only while
     its tid is in [ready]. *)
  conts : (unit, unit) Effect.Deep.continuation array;
  (* Set by a thread's first instruction: only the watchdog diagnostic
     tells a thread that never ran from a parked one. *)
  started : bool array;
  srng : Rng.t;
  mutable live : int;
  (* Cached lower bound on the minimal clock among all other runnable
     threads; the running thread keeps going without yielding while its
     clock stays below this, which removes most continuation captures. *)
  mutable min_other : int;
  wd_budget : int;  (* max_int = no watchdog: one compare per switch, no option match *)
  wd_diag : (unit -> string) option;
  (* Clock of the most recent progress note; the watchdog fires when the
     schedule's frontier runs more than wd_budget past it. *)
  mutable wd_last : int;
  strat : strat_state;
  (* Exploring mode (any non-min-clock strategy, or a recorder installed)
     disables the min_other fast path so that every tick is a scheduling
     decision. That makes choice-point numbering identical between a
     recorded run and its deviation replay. *)
  explore : bool;
  recd : recorder option;
  mutable choice_idx : int;
}

and strat_state =
  | S_min
  | S_random of Rng.t
  | S_pct of pct_state
  | S_dev of (int, int) Hashtbl.t

and pct_state = {
  prio : int array; (* per-tid priority; higher runs first *)
  mutable changes : int list; (* ascending change points, in choice indices *)
  mutable demote_next : int; (* next (ever lower) priority handed out *)
}

and recorder = {
  mutable rev_picks : int list;
  mutable rev_devs : (int * int) list;
  (* Every counted decision as (choice index, runnable-tid bitmask, chosen
     tid): the raw material for exhaustive schedule enumeration — a DFS can
     branch on every runnable alternative at every index (lib/explore's
     litmus enumerator). *)
  mutable rev_choices : (int * int * int) list;
}

(* The ambient observer: consulted by [run] when no explicit [?observe]
   is given. The benchmark driver points it at the current machine's
   sinks so workloads that call [Sim.run] directly are observed without
   threading an observer through every signature. Domain-local: worker
   domains of the benchmark runner install their own without racing the
   main domain (or each other). *)
let ambient_observer : observer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_default_observer o = Domain.DLS.set ambient_observer o

let boot ?(seed = 0) () =
  {
    ctx_tid = boot_tid;
    clock = 0;
    ctx_rng = Rng.create (seed lxor 0x6a09e667);
    sched = None;
    faults = None;
    shield_depth = 0;
    last_progress = 0;
    ctx_observe = None;
    ctx_drains = [];
  }

let tid ctx = ctx.ctx_tid
let clock ctx = ctx.clock
let rng ctx = ctx.ctx_rng

let yield_count = ref 0
let yield () = incr yield_count; Effect.perform Yield

(* Fault injection happens at scheduling points only (tick/advance_to,
   never charge): a stall models preemption by jumping the thread's clock
   past the interval other threads get to run in, and a kill terminates
   the thread exactly as [stop] would — mid-operation, with whatever
   partial non-transactional effects it had already applied. *)
let observe_fault ctx kind =
  match ctx.ctx_observe with
  | None -> ()
  | Some f -> f ~tid:ctx.ctx_tid ~clock:ctx.clock (Fault kind)

let inject ctx =
  match ctx.faults with
  | None -> ()
  | Some f ->
    if ctx.shield_depth = 0 then begin
      match Fault.decide f ~tid:ctx.ctx_tid ~clock:ctx.clock with
      | Fault.Nothing -> ()
      | Fault.Stall d ->
        observe_fault ctx (Fault.Stalled d);
        ctx.clock <- ctx.clock + d
      | Fault.Kill ->
        observe_fault ctx Fault.Killed;
        raise Stop_thread
    end

(* A named code point: layers mark semantically dangerous windows (e.g.
   the STM commit while versioned locks are held) and a fault plan's
   [kills_at_point] entries fire exactly there. Charges nothing and never
   yields — it is a kill point, not a scheduling point — so registering
   one cannot perturb a fault-free schedule. *)
let fault_point ctx name =
  match ctx.faults with
  | None -> ()
  | Some f ->
    if
      ctx.shield_depth = 0
      && Fault.at_point f ~tid:ctx.ctx_tid ~clock:ctx.clock ~point:name
    then begin
      observe_fault ctx (Fault.Killed_at name);
      raise Stop_thread
    end

(* The two scheduling points are inlined into every access: a fault-free
   run pays one option test for the plan, and [inject] runs out of line. *)
let[@inline] tick ctx cost =
  ctx.clock <- ctx.clock + cost;
  (match ctx.faults with None -> () | Some _ -> inject ctx);
  match ctx.sched with
  | None -> ()
  | Some s -> if ctx.clock >= s.min_other then yield ()

let charge ctx cost = ctx.clock <- ctx.clock + cost

(* A full memory fence. Drain hooks run first (oldest registration first)
   so the fence cost is charged after the buffered stores have paid their
   own write costs; with no hooks registered (the [sc] model, or a thread
   that never buffered a store) this is exactly [tick ctx cost]. *)
let register_drain ctx f = ctx.ctx_drains <- ctx.ctx_drains @ [ f ]

let fence ?(cost = 60) ctx =
  List.iter (fun f -> f ~terminal:false) ctx.ctx_drains;
  tick ctx cost

(* Thread teardown: flush what the dying thread already issued. Runs in
   terminal mode — hooks charge rather than tick, because the fiber has no
   further scheduling points. A TSO machine does not lose the contents of
   a store buffer when its core halts; a crash-kill flushing its buffer is
   the hardware-faithful reading of [Fault.Kill] (the buffered stores were
   executed instructions, only their visibility was pending). *)
let drain_terminal ctx = List.iter (fun f -> f ~terminal:true) ctx.ctx_drains

let[@inline] advance_to ctx t =
  if t > ctx.clock then ctx.clock <- t;
  (match ctx.faults with None -> () | Some _ -> inject ctx);
  match ctx.sched with
  | None -> ()
  | Some s -> if ctx.clock >= s.min_other then yield ()

let stop () = raise Stop_thread

let shield ctx f =
  ctx.shield_depth <- ctx.shield_depth + 1;
  Fun.protect ~finally:(fun () -> ctx.shield_depth <- ctx.shield_depth - 1) f

let spurious_fires ctx =
  match ctx.faults with
  | None -> false
  | Some f ->
    let fires =
      ctx.shield_depth = 0 && Fault.spurious f ~tid:ctx.ctx_tid ~clock:ctx.clock
    in
    if fires then observe_fault ctx Fault.Spurious_abort;
    fires

let note_progress ctx =
  ctx.last_progress <- ctx.clock;
  match ctx.sched with
  | None -> ()
  | Some s -> if ctx.clock > s.wd_last then s.wd_last <- ctx.clock

(* Scheduling strategies (lib/explore drives these): [Min_clock] is the
   virtual-time-faithful default; the others deliberately break the
   clock/execution-order correspondence to explore interleavings that the
   default schedule can never produce. *)
type strategy =
  | Min_clock
  | Random_walk of { rw_seed : int }
  | Pct of { pct_seed : int; pct_depth : int; pct_length : int }
  | Deviate of (int * int) list

let pp_strategy ppf = function
  | Min_clock -> Format.pp_print_string ppf "min-clock"
  | Random_walk { rw_seed } -> Format.fprintf ppf "random-walk(seed=%d)" rw_seed
  | Pct { pct_seed; pct_depth; pct_length } ->
    Format.fprintf ppf "pct(seed=%d,d=%d,len=%d)" pct_seed pct_depth pct_length
  | Deviate devs -> Format.fprintf ppf "deviate(%d points)" (List.length devs)

(* The PCT change points: [depth - 1] priority-change positions drawn
   uniformly from [0, length) in choice-index space, sorted. Exposed as a
   pure function so its placement properties are testable in isolation;
   [run] derives the exact same list for a [Pct] strategy. *)
let pct_change_points ~seed ~depth ~length =
  let rng = Rng.create (seed lxor 0x3c6ef372) in
  let n = max 0 (depth - 1) in
  let l = max 1 length in
  let rec gen acc k = if k = 0 then acc else gen (Rng.int rng l :: acc) (k - 1) in
  List.sort Int.compare (gen [] n)

let recorder () = { rev_picks = []; rev_devs = []; rev_choices = [] }
let deviations r = List.rev r.rev_devs
let choices r = List.rev r.rev_choices
let decision_string r = String.concat ";" (List.rev_map string_of_int r.rev_picks)

let pick_min rng clocks =
  let q = Ready.create (Array.length clocks) in
  Array.iteri (fun i c -> if c <> max_int then Ready.add q i c) clocks;
  let i = Ready.pick q rng in
  (i, q.second)

(* One exploring-mode decision, given the min-clock pick [d]. The
   min-clock pick (and its tie-break RNG draws) is made at every decision
   even when another strategy overrides it: the replay of a recorded
   schedule as deviations from min-clock depends on both runs consuming
   the scheduler RNG identically. The strategy then chooses among every
   parked thread, [d] put back included. *)
let explore_pick s d =
  Ready.add s.ready d s.ctxs.(d).clock;
  let runnable = Ready.union s.ready in
  let nr = Ready.popcount runnable in
  let is_runnable tid = runnable land (1 lsl tid) <> 0 in
  let chosen =
    match s.strat with
    | S_min -> d
    | S_dev tbl ->
      (match Hashtbl.find_opt tbl s.choice_idx with
       | Some tid when tid >= 0 && tid < Array.length s.ctxs && is_runnable tid -> tid
       | Some _ | None -> d)
    | S_random rng ->
      if nr <= 1 then d
      else begin
        (* The [k]th runnable thread in index order. *)
        let rec nth m k =
          let b = m land -m in
          if k = 0 then Ready.ctz_bit b else nth (m lxor b) (k - 1)
        in
        nth runnable (Rng.int rng nr)
      end
    | S_pct p ->
      let best = ref (-1) in
      for i = 0 to Array.length s.ctxs - 1 do
        if is_runnable i && (!best < 0 || p.prio.(i) > p.prio.(!best)) then best := i
      done;
      !best
  in
  Ready.remove s.ready chosen;
  (match s.strat with
   | S_pct p ->
     (* A change point demotes the thread chosen at that point below
        every priority handed out so far, PCT-style. *)
     let rec demote () =
       match p.changes with
       | c :: rest when c <= s.choice_idx ->
         p.changes <- rest;
         p.demote_next <- p.demote_next - 1;
         p.prio.(chosen) <- p.demote_next;
         demote ()
       | _ -> ()
     in
     demote ()
   | S_min | S_random _ | S_dev _ -> ());
  (match s.recd with
   | Some r ->
     r.rev_picks <- chosen :: r.rev_picks;
     if nr >= 2 then begin
       r.rev_choices <- (s.choice_idx, runnable, chosen) :: r.rev_choices;
       if chosen <> d then r.rev_devs <- (s.choice_idx, chosen) :: r.rev_devs
     end
   | None -> ());
  if nr >= 2 then s.choice_idx <- s.choice_idx + 1;
  chosen

(* Exit flush as a scheduler-visible step: a thread that buffered stores
   (has drain hooks) yields once between its last instruction and its
   terminal drain. Without this the flush is atomically glued to the last
   instruction, so no other thread could ever observe the window between
   a final load and the buffer drain — litmus SB's (0,0) would be
   unreachable even under [sb]. Runs inside the fiber (it performs
   [Yield]); under [sc] no hooks are ever registered and this is a no-op,
   preserving schedules byte-for-byte. Kill paths skip it on purpose:
   a crash flushes immediately (see [drain_terminal]). *)
let exit_flush ctx = if ctx.ctx_drains <> [] then yield ()

let handler s t : (unit, unit) Effect.Deep.handler =
  (* Hoisted out of [effc]: the yield handler and its [Some] wrapper are
     allocated once per thread, not once per [perform]. The scheduler
     switches on every contended memory access, so a per-perform closure
     here is a measurable share of the whole simulation's allocation. *)
  let on_yield (k : (unit, unit) Effect.Deep.continuation) = s.conts.(t.ctx_tid) <- k in
  let some_on_yield = Some on_yield in
  let finish () =
    drain_terminal t;
    s.live <- s.live - 1
  in
  {
    retc = finish;
    exnc = (function Stop_thread -> finish () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Yield -> some_on_yield | _ -> None);
  }

(* [conts] is created before any thread has parked, so it needs some
   continuation to start from: a throwaway fiber parked at its first
   yield, resumed to completion once every thread has parked in its own
   slot. *)
let placeholder () =
  let slot : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Yield
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> slot := Some k)
          | _ -> None);
    };
  Option.get !slot

(* Watchdog diagnostic: the full machine state a livelock post-mortem
   needs — per-thread clocks, run states, and progress recency. It runs
   between slices, so every thread but the one just picked ([running])
   is parked or finished. *)
let diagnose s ~running frontier =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "no progress committed while the schedule advanced to cycle %d" frontier);
  Buffer.add_string b (Printf.sprintf " (last progress at %d)\n" s.wd_last);
  Array.iteri
    (fun i t ->
      let st =
        if i <> running && not (Ready.mem s.ready i) then "finished"
        else if s.started.(i) then "ready"
        else "not-started"
      in
      Buffer.add_string b
        (Printf.sprintf "  thread %d: %-11s clock=%-10d last_progress=%d\n" i st t.clock
           t.last_progress))
    s.ctxs;
  (match s.wd_diag with
   | None -> ()
   | Some f -> Buffer.add_string b (f ()));
  Buffer.contents b

let run ?(seed = 0) ?(strategy = Min_clock) ?record ?faults ?watchdog ?diag ?observe
    bodies =
  let n = Array.length bodies in
  if n = 0 || n > max_threads then
    invalid_arg "Sim.run: need between 1 and 256 threads";
  let exploring =
    (match strategy with Min_clock -> false | _ -> true) || Option.is_some record
  in
  if exploring && n > mask_threads then
    invalid_arg "Sim.run: exploring strategies and recording support at most 61 threads";
  let observe = if Option.is_none observe then Domain.DLS.get ambient_observer else observe in
  let root = Rng.create seed in
  let ctxs =
    Array.init n (fun i ->
        {
          ctx_tid = i;
          clock = 0;
          ctx_rng = Rng.create (Rng.bits root lxor i);
          sched = None;
          faults;
          shield_depth = 0;
          last_progress = 0;
          ctx_observe = observe;
          ctx_drains = [];
        })
  in
  let strat =
    match strategy with
    | Min_clock -> S_min
    | Random_walk { rw_seed } -> S_random (Rng.create (rw_seed lxor 0x1f83d9ab))
    | Pct { pct_seed; pct_depth; pct_length } ->
      let prng = Rng.create (pct_seed lxor 0x5be0cd19) in
      let prio = Array.init n (fun i -> i + 1) in
      for i = n - 1 downto 1 do
        let j = Rng.int prng (i + 1) in
        let tmp = prio.(i) in
        prio.(i) <- prio.(j);
        prio.(j) <- tmp
      done;
      S_pct
        { prio;
          changes = pct_change_points ~seed:pct_seed ~depth:pct_depth ~length:pct_length;
          demote_next = 0 }
    | Deviate devs ->
      let tbl = Hashtbl.create (List.length devs * 2) in
      List.iter (fun (k, tid) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k tid) devs;
      S_dev tbl
  in
  let filler = placeholder () in
  let s =
    { ctxs; ready = Ready.create n; conts = Array.make n filler;
      started = Array.make n false; srng = Rng.split root; live = n; min_other = 0;
      wd_budget = Option.value watchdog ~default:max_int;
      wd_diag = diag; wd_last = 0;
      strat; explore = exploring; recd = record; choice_idx = 0 }
  in
  (* Park every thread before its first instruction, so the loop below
     only ever resumes. The priming yield is not a switch: it is not
     counted in [yield_count]. *)
  Array.iteri
    (fun i t ->
      t.sched <- Some s;
      Effect.Deep.match_with
        (fun () ->
          Effect.perform Yield;
          s.started.(i) <- true;
          bodies.(i) t;
          exit_flush t)
        () (handler s t);
      Ready.add s.ready i 0)
    ctxs;
  Effect.Deep.continue filler ();
  let rec loop () =
    if s.live > 0 then begin
      let d = Ready.pick s.ready s.srng in
      let i = if s.explore then explore_pick s d else d in
      assert (i >= 0);
      let t = ctxs.(i) in
      if t.clock - s.wd_last > s.wd_budget then begin
        Array.iter (fun c -> c.sched <- None) ctxs;
        raise (Watchdog (diagnose s ~running:i t.clock))
      end;
      s.min_other <- (if s.explore then min_int else s.ready.second);
      let slice_start = t.clock and live = s.live in
      Effect.Deep.continue s.conts.(i) ();
      if s.live = live then Ready.add s.ready i t.clock;
      (match observe with
       | None -> ()
       | Some f -> if t.clock > slice_start then f ~tid:i ~clock:t.clock (Slice slice_start));
      loop ()
    end
  in
  loop ();
  Array.iter (fun c -> c.sched <- None) ctxs

module Backoff = struct
  (* The pure retry-backoff envelope shared by the transaction layers
     ({!Htm}, {!Stm}): exponential in the attempt number, clamped at [cap]
     (the shift itself saturates at 9 so the envelope is total for any
     [n]). Exposed as functions of their inputs so qcheck can state the
     monotone-until-cap property without driving a scheduler. *)
  let bound ~base ~cap n = Int.min cap (base lsl Int.min n 9)

  (* One randomized delay inside the envelope: uniform in
     [bound/2, bound). Deterministic in (rng state, base, cap, n). *)
  let delay ~base ~cap rng n =
    let hi = bound ~base ~cap n in
    (hi / 2) + Rng.int rng (Int.max 1 (hi / 2))
end
