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

  let of_string = function
    | "sc" -> Some sc
    | "sb" -> Some sb
    | "sb-bypass" -> Some sb_bypass
    | "sb-fence-nop" -> Some sb_fence_nop
    | _ -> None
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

type _ Effect.t += Yield : unit Effect.t

type tctx = {
  ctx_tid : int;
  mutable clock : int;
  ctx_rng : Rng.t;
  mutable sched : sched option;
  mutable faults : Fault.t option;
  mutable shield_depth : int;
  mutable last_progress : int;
  (* Observability taps. Pure OCaml-side bookkeeping: recording charges no
     virtual cycles, draws no simulator RNG and never forces exploring
     mode, so a traced run is cycle-identical to an untraced one. *)
  ctx_tracer : Obs.Tracer.sink option;
  ctx_on_fault : (Fault.event -> unit) option;
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
  (* The clock plane ([plane_get]): the clock each thread parked at,
     [parked] while it runs or once it has finished. At once the runnable
     set and the pick key, so a switch is one store on each side and the
     pick one flat scan. *)
  clocks : Bytes.t;
  (* Each parked thread's continuation; a slot is meaningful only while
     its [clocks] entry is below [parked]. *)
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
  (* Scratch written by [min_scan]: the second-smallest runnable clock
     (with multiplicity), i.e. the minimum over the other runnable threads
     once the picked one is excluded. Saves the separate min_other scan. *)
  pick_min2 : int ref;
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

(* The ambient tracer sink: consulted by [run] when no explicit
   [?tracer] is given. The benchmark driver points it at the current
   machine's process sink so workloads that call [Sim.run] directly are
   traced without threading a sink through every signature. *)
(* Domain-local: worker domains of the benchmark runner install their
   own sinks without racing the main domain (or each other). *)
let ambient_tracer : Obs.Tracer.sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_default_tracer s = Domain.DLS.set ambient_tracer s

let boot ?(seed = 0) () =
  {
    ctx_tid = boot_tid;
    clock = 0;
    ctx_rng = Rng.create (seed lxor 0x6a09e667);
    sched = None;
    faults = None;
    shield_depth = 0;
    last_progress = 0;
    ctx_tracer = None;
    ctx_on_fault = None;
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
  (match ctx.ctx_tracer with
   | None -> ()
   | Some sink ->
     let name, args =
       match kind with
       | Fault.Stalled d -> ("fault.stall", [ ("cycles", Obs.Json.Int d) ])
       | Fault.Killed -> ("fault.kill", [])
       | Fault.Killed_at p -> ("fault.kill", [ ("point", Obs.Json.Str p) ])
       | Fault.Spurious_abort -> ("fault.spurious", [])
     in
     Obs.Tracer.instant sink ~tid:ctx.ctx_tid ~name ~cat:"fault" ~args ctx.clock);
  match ctx.ctx_on_fault with
  | None -> ()
  | Some f -> f { Fault.ev_tid = ctx.ctx_tid; ev_clock = ctx.clock; ev_kind = kind }

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

let tick ctx cost =
  ctx.clock <- ctx.clock + cost;
  inject ctx;
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

let advance_to ctx t =
  if t > ctx.clock then ctx.clock <- t;
  inject ctx;
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

(* The clock plane: each thread's parked clock as an untagged int64, 8
   bytes per thread, [parked] (= [Int64.max_int]) while it runs or once
   it has finished. The pick's arithmetic then runs on unboxed int64
   locals, with no tag fixups. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let parked = Int64.max_int
let plane_width p = Bytes.length p lsr 3
let[@inline] plane_get p i = get64 p (i lsl 3)
let[@inline] plane_set p i c = set64 p (i lsl 3) c

let plane_make n =
  let p = Bytes.create (n lsl 3) in
  for i = 0 to n - 1 do
    plane_set p i parked
  done;
  p

(* [pick_min] (sim.mli) on a clock plane: the second minimum lands in
   [m2], so the run loop's min_other update needs no second scan. The
   first pass is branch-free, because the clock compares of an in-cell
   schedule are data-dependent and mispredict as branches; it also flags
   whether any entry tied the running minimum when visited. Only then (a
   minority of picks) does the exact reservoir loop run: with no tie it
   would draw nothing and keep the first argmin, which the first pass
   already has. The pass starts from [top], above every clock and below
   [parked], so a parked entry never ties and a real one always
   undercuts the start. *)
let min_scan rng clocks m2 =
  let n = plane_width clocks in
  let top = Int64.pred parked in
  let m = ref top and sec = ref top and arg = ref (-1L) and i = ref 0L in
  (* Sign bit cleared by a tie: d lor (-d) is non-negative only at 0. *)
  let untied = ref (-1L) in
  for k = 0 to n - 1 do
    let c = plane_get clocks k in
    let d = Int64.sub c !m in
    let lt = Int64.shift_right d 63 (* -1 when c < m, else 0 *) in
    untied := Int64.logand !untied (Int64.logor d (Int64.neg d));
    let t = Int64.logand d lt in
    (* [sec] becomes min sec (max c m): [m] itself when c undercuts it. *)
    let e = Int64.sub (Int64.sub c t) !sec in
    sec := Int64.add !sec (Int64.logand e (Int64.shift_right e 63));
    m := Int64.add !m t;
    arg := Int64.add !arg (Int64.logand (Int64.sub !i !arg) lt);
    i := Int64.succ !i
  done;
  m2 := (if !sec = top then max_int else Int64.to_int !sec);
  if !untied < 0L then Int64.to_int !arg
  else begin
    let best = ref (-1) and best_clock = ref parked and ties = ref 0 in
    for i = 0 to n - 1 do
      let c = plane_get clocks i in
      if c < !best_clock then begin
        best_clock := c;
        best := i;
        ties := 1
      end
      else if c = !best_clock && c < parked then begin
        incr ties;
        if Rng.int rng !ties = 0 then best := i
      end
    done;
    !best
  end

let pick_min rng clocks =
  let plane = plane_make (Array.length clocks) in
  Array.iteri
    (fun i c -> plane_set plane i (if c = max_int then parked else Int64.of_int c))
    clocks;
  let m2 = ref max_int in
  let i = min_scan rng plane m2 in
  (i, !m2)

let is_runnable s i = plane_get s.clocks i < parked

let count_runnable s =
  let n = ref 0 in
  for i = 0 to plane_width s.clocks - 1 do
    if is_runnable s i then incr n
  done;
  !n

let runnable_mask s =
  let m = ref 0 in
  for i = 0 to plane_width s.clocks - 1 do
    if is_runnable s i then m := !m lor (1 lsl i)
  done;
  !m

(* The [k]th runnable thread in index order, or [-1]. *)
let nth_runnable s k =
  let rec go i seen =
    if i = plane_width s.clocks then -1
    else if not (is_runnable s i) then go (i + 1) seen
    else if seen = k then i
    else go (i + 1) (seen + 1)
  in
  go 0 0

(* One scheduling decision. In exploring mode the min-clock pick (and its
   tie-break RNG draws) is computed at every decision even when another
   strategy overrides it: the replay of a recorded schedule as deviations
   from min-clock depends on both runs consuming the scheduler RNG
   identically. *)
let pick s =
  let d = min_scan s.srng s.clocks s.pick_min2 in
  if not s.explore then d
  else begin
    let nr = count_runnable s in
    let chosen =
      match s.strat with
      | S_min -> d
      | S_dev tbl ->
        (match Hashtbl.find_opt tbl s.choice_idx with
         | Some tid when tid >= 0 && tid < Array.length s.ctxs && is_runnable s tid -> tid
         | Some _ | None -> d)
      | S_random rng -> if nr <= 1 then d else nth_runnable s (Rng.int rng nr)
      | S_pct p ->
        let best = ref (-1) in
        for i = 0 to Array.length s.ctxs - 1 do
          if is_runnable s i && (!best < 0 || p.prio.(i) > p.prio.(!best)) then best := i
        done;
        !best
    in
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
         r.rev_choices <- (s.choice_idx, runnable_mask s, chosen) :: r.rev_choices;
         if chosen <> d then r.rev_devs <- (s.choice_idx, chosen) :: r.rev_devs
       end
     | None -> ());
    if nr >= 2 then s.choice_idx <- s.choice_idx + 1;
    chosen
  end

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
  let on_yield (k : (unit, unit) Effect.Deep.continuation) =
    s.conts.(t.ctx_tid) <- k;
    plane_set s.clocks t.ctx_tid (Int64.of_int t.clock)
  in
  let some_on_yield = Some on_yield in
  (* A finished thread's [clocks] entry is already [parked]: it was
     running. *)
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
   between slices, so every thread is parked or finished. *)
let diagnose s frontier =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "no progress committed while the schedule advanced to cycle %d" frontier);
  Buffer.add_string b (Printf.sprintf " (last progress at %d)\n" s.wd_last);
  Array.iteri
    (fun i t ->
      let st =
        if not (is_runnable s i) then "finished"
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

let run ?(seed = 0) ?(strategy = Min_clock) ?record ?faults ?watchdog ?diag ?tracer
    ?on_fault bodies =
  let n = Array.length bodies in
  if n = 0 || n > max_threads then
    invalid_arg "Sim.run: need between 1 and 256 threads";
  let exploring =
    (match strategy with Min_clock -> false | _ -> true) || Option.is_some record
  in
  if exploring && n > mask_threads then
    invalid_arg "Sim.run: exploring strategies and recording support at most 61 threads";
  let sink = match tracer with Some _ -> tracer | None -> Domain.DLS.get ambient_tracer in
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
          ctx_tracer = sink;
          ctx_on_fault = on_fault;
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
    { ctxs; clocks = plane_make n; conts = Array.make n filler;
      started = Array.make n false; srng = Rng.split root; live = n; min_other = 0;
      pick_min2 = ref max_int; wd_budget = Option.value watchdog ~default:max_int;
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
        () (handler s t))
    ctxs;
  Effect.Deep.continue filler ();
  let rec loop () =
    if s.live > 0 then begin
      let i = pick s in
      assert (i >= 0);
      let t = ctxs.(i) in
      if t.clock - s.wd_last > s.wd_budget then begin
        Array.iter (fun c -> c.sched <- None) ctxs;
        raise (Watchdog (diagnose s t.clock))
      end;
      s.min_other <- (if s.explore then min_int else !(s.pick_min2));
      let slice_start = t.clock in
      plane_set s.clocks i parked;
      Effect.Deep.continue s.conts.(i) ();
      (match sink with
       | None -> ()
       | Some sk ->
         if t.clock > slice_start then
           Obs.Tracer.span sk ~tid:i ~name:"run" ~cat:"sched" slice_start t.clock);
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
