(* The three workloads, as cells built from the layers' public functions.

   Each cell builds a fresh machine and structure, prefills it, runs the
   measured window with [Sim.run], checks its invariants and destroys the
   structure. The loops keep the shapes of the figures they follow (fig 1
   queues, fig 4/5 collect-under-update, the fallback study's big
   transactions); only the checks are added. *)

open Workload

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Liveness budget: well above the one silent phase, the warm-up window. *)
let watchdog = 5 * Driver.warmup

type result = {
  ops : int;  (** operations completed in the measured window *)
  vops : float;  (** virtual throughput, ops/us *)
}

type spec = {
  label : string;
  threads : int;
  buffered : bool;  (** store-buffered ([sb]) machine *)
  arena : bool;  (** arena allocator instead of the shared LIFO *)
  body : Probe.t -> seed:int -> result;
}

type workload = { name : string; cells : spec list }

let live mem = (Simmem.stats mem).live_words
let sum = Array.fold_left ( + ) 0

(* [Driver.measured_loop] that also feeds the watchdog. *)
let measured ctx ~deadline op =
  Driver.measured_loop ctx ~deadline (fun () ->
      op ();
      Sim.note_progress ctx)

let check_live mem ~before =
  let after = live mem in
  if after <> before then failf "live words %d after destroy, %d before build" after before

(* Values bound or enqueued: unique per cell, independent of the round. *)
let value_supply () =
  let next = ref 0 in
  fun () ->
    incr next;
    !next

(* The fig 1 coin-flip loop over [q] on threads [0 .. threads-1];
   returns per-thread (operations, enqueues, successful dequeues). *)
let coin_flip_bodies (q : Hqueue.Intf.instance) ~threads ~deadline ~value =
  let ops = Array.make threads 0 in
  let enq = Array.make threads 0 in
  let deq = Array.make threads 0 in
  let body i ctx =
    ops.(i) <-
      measured ctx ~deadline (fun () ->
          if Sim.Rng.bool (Sim.rng ctx) then begin
            q.enqueue ctx (value ());
            enq.(i) <- enq.(i) + 1
          end
          else if q.dequeue_drop ctx then deq.(i) <- deq.(i) + 1)
  in
  (body, ops, enq, deq)

(* Queue conservation: prefill + enqueues - dequeues = what is left. *)
let drain_and_check p (q : Hqueue.Intf.instance) boot ~prefill ~enq ~deq =
  Probe.span p "check" (fun () ->
      let left = ref 0 in
      while q.dequeue_drop boot do
        incr left
      done;
      let expect = prefill + sum enq - sum deq in
      if !left <> expect then
        failf "queue conservation: %d left, expected %d + %d - %d" !left prefill (sum enq)
          (sum deq))

let queue_cell (maker : Hqueue.Intf.maker) ~threads ~prefill ~duration p ~seed =
  let m = Probe.span p "machine" (fun () -> Driver.machine ~seed ~threads ()) in
  Probe.attach p m.mem m.htm;
  let before = live m.mem in
  let q = Probe.span p "make" (fun () -> maker.make m.htm m.boot ~num_threads:threads) in
  let value = value_supply () in
  Probe.span p "prefill" (fun () ->
      for _ = 1 to prefill do
        q.enqueue m.boot (value ())
      done);
  let deadline = Driver.warmup + duration in
  let body, ops, enq, deq = coin_flip_bodies q ~threads ~deadline ~value in
  Probe.span p "run" (fun () -> Sim.run ~seed ~watchdog (Array.init threads body));
  drain_and_check p q m.boot ~prefill ~enq ~deq;
  Probe.span p "destroy" (fun () -> q.destroy m.boot);
  check_live m.mem ~before;
  { ops = sum ops; vops = Driver.ops_per_us ~ops:(sum ops) ~duration }

let sorted_contents buf = List.sort Int.compare (Sim.Ibuf.to_list buf)

(* Collect at quiescence, after every handle was deregistered: empty. *)
let check_empty p (inst : Collect.Intf.instance) boot ~capacity =
  Probe.span p "check" (fun () ->
      let buf = Sim.Ibuf.create ~capacity () in
      inst.collect boot buf;
      if Sim.Ibuf.length buf <> 0 then
        failf "%d values collected after every handle deregistered" (Sim.Ibuf.length buf))

(* Figures 4/5: one collector runs collects back to back while [updaters]
   threads register 64 handles between them and each updates its first
   handle every [period] cycles. After the window the collector waits for
   in-flight updates to land and collects once more: the result must be
   exactly the values last bound to the 64 handles. *)
let total_handles = 64
let settle = 50_000

let collect_update_cell (maker : Collect.Intf.maker) ~step ~updaters ~period ~duration p
    ~seed =
  let threads = updaters + 1 in
  let m = Probe.span p "machine" (fun () -> Driver.machine ~seed ~threads ()) in
  Probe.attach p m.mem m.htm;
  let before = live m.mem in
  let cfg =
    { Collect.Intf.max_slots = total_handles * 2; num_threads = threads; step; min_size = 4 }
  in
  let inst = Probe.span p "make" (fun () -> maker.make m.htm m.boot cfg) in
  let value = value_supply () in
  let deadline = Driver.warmup + duration in
  let collects = ref 0 in
  let measuring = ref true in
  let final = ref [] in
  let quotas = Array.of_list (Driver.split_evenly total_handles updaters) in
  let bound = Array.map (fun q -> Array.make q 0) quotas in
  let collector ctx =
    let buf = Sim.Ibuf.create ~capacity:(2 * total_handles) () in
    Sim.advance_to ctx Driver.warmup;
    collects :=
      measured ctx ~deadline (fun () ->
          Sim.Ibuf.clear buf;
          inst.collect ctx buf);
    Sim.advance_to ctx (deadline + settle);
    Sim.Ibuf.clear buf;
    inst.collect ctx buf;
    final := sorted_contents buf;
    measuring := false
  in
  let updater i ctx =
    let mine = bound.(i) in
    let handles =
      Array.mapi
        (fun k _ ->
          let v = value () in
          mine.(k) <- v;
          inst.register ctx v)
        mine
    in
    if Array.length handles > 0 then
      Driver.periodic_loop ctx ~deadline ~period (fun () ->
          let v = value () in
          inst.update ctx handles.(0) v;
          mine.(0) <- v;
          Sim.note_progress ctx);
    while !measuring do
      Sim.tick ctx 2000
    done;
    Array.iter (fun h -> inst.deregister ctx h) handles
  in
  let bodies = Array.init threads (fun i -> if i = 0 then collector else updater (i - 1)) in
  Probe.span p "run" (fun () -> Sim.run ~seed ~watchdog bodies);
  let expect = List.sort Int.compare (List.concat_map Array.to_list (Array.to_list bound)) in
  if !final <> expect then
    failf "final collect returned %d values, not the %d bound" (List.length !final)
      (List.length expect);
  check_empty p inst m.boot ~capacity:(2 * total_handles);
  Probe.span p "destroy" (fun () -> inst.destroy m.boot);
  check_live m.mem ~before;
  { ops = !collects; vops = Driver.ops_per_us ~ops:!collects ~duration }

(* The hybrid mix on a TSO machine: threads [0 .. half-1] run the fig 1
   loop on Michael-Scott+EBR (plain stores through the store buffer,
   fences, remote frees into the owners' arena rings); threads [half ..]
   each increment a private 48-word region in one transaction, which
   overflows the 32-entry hardware buffer and escalates to the STM. Every
   region word must end equal to its thread's committed transactions. *)
let span_words = 48

let hybrid_cell ~threads ~prefill ~duration p ~seed =
  let half = threads / 2 in
  let mem, htm, boot =
    Probe.span p "machine" (fun () ->
        let mem =
          Simmem.create ~model:Sim.Memmodel.sb ~alloc:(Simmem.Arena Simmem.Line_isolated)
            ~threads ()
        in
        (mem, Htm.create ~config:Htm.hybrid_config mem, Sim.boot ~seed ()))
  in
  Probe.attach p mem htm;
  let before = live mem in
  let q, regions =
    Probe.span p "make" (fun () ->
        ( Hqueue.ebr.make htm boot ~num_threads:half,
          Array.init (threads - half) (fun _ -> Simmem.malloc mem boot span_words) ))
  in
  let value = value_supply () in
  Probe.span p "prefill" (fun () ->
      for _ = 1 to prefill do
        q.enqueue boot (value ())
      done);
  let deadline = Driver.warmup + duration in
  let queue_body, qops, enq, deq = coin_flip_bodies q ~threads:half ~deadline ~value in
  let txs = Array.make (threads - half) 0 in
  let tx_body k ctx =
    let base = regions.(k) in
    let incr_all tx =
      for j = 0 to span_words - 1 do
        Htm.write tx (base + j) (Htm.read tx (base + j) + 1)
      done
    in
    txs.(k) <- measured ctx ~deadline (fun () -> Htm.atomic htm ctx incr_all)
  in
  let bodies =
    Array.init threads (fun i -> if i < half then queue_body i else tx_body (i - half))
  in
  Probe.span p "run" (fun () -> Sim.run ~seed ~watchdog bodies);
  drain_and_check p q boot ~prefill ~enq ~deq;
  Probe.span p "check" (fun () ->
      Array.iteri
        (fun k base ->
          for j = 0 to span_words - 1 do
            let v = Simmem.peek mem (base + j) in
            if v <> txs.(k) then
              failf "region %d word %d is %d after %d committed transactions" k j v txs.(k)
          done)
        regions);
  Probe.span p "destroy" (fun () ->
      q.destroy boot;
      Array.iter (Simmem.free mem boot) regions);
  check_live mem ~before;
  let ops = sum qops + sum txs in
  { ops; vops = Driver.ops_per_us ~ops ~duration }

let queue name = Option.get (Hqueue.find_maker name)
let collect name = Option.get (Collect.find_maker name)

let spec ?(buffered = false) ?(arena = false) label threads body =
  { label; threads; buffered; arena; body }

let workloads =
  [
    {
      name = "queue-x16";
      cells =
        List.map
          (fun name ->
            spec (name ^ "/x16") 16
              (queue_cell (queue name) ~threads:16 ~prefill:64 ~duration:400_000))
          [ "HTM"; "MichaelScott"; "MichaelScott+ROP" ];
    };
    {
      name = "collect-update";
      cells =
        [
          spec "ArrayDynAppendDereg/adapt" 16
            (collect_update_cell (collect "ArrayDynAppendDereg") ~step:Collect.Intf.Adaptive
               ~updaters:15 ~period:100_000 ~duration:400_000);
          spec "ListFastCollect/step32" 16
            (collect_update_cell (collect "ListFastCollect") ~step:(Collect.Intf.Fixed 32)
               ~updaters:15 ~period:100_000 ~duration:400_000);
        ];
    };
    {
      name = "hybrid-sb";
      cells =
        [
          spec ~buffered:true ~arena:true "EBR+STM48/x8" 8
            (hybrid_cell ~threads:8 ~prefill:64 ~duration:400_000);
        ];
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

type outcome = {
  spec : spec;
  result : (result, string) Stdlib.result;
  digest : string;  (** the cell's deterministic results; [""] on failure *)
  setup_ns : int;
  run_ns : int;
  run_delta : Probe.counters;  (** counters moved by [Sim.run] *)
}

(* Everything deterministic the layers report about a finished cell. *)
let stats_string mem htm =
  let s = Simmem.stats mem and h = Htm.stats htm in
  String.concat ","
    (List.map string_of_int
       ([ s.live_words; s.live_blocks; s.peak_live_words; s.peak_live_blocks;
          s.total_allocs; s.total_frees; s.heap_extent; s.remote_frees; s.remote_pending;
          s.reads; s.read_misses; s.writes; s.write_misses; s.atomics ]
       @ List.concat_map (fun (t, w) -> [ t; w ]) s.arena_extents
       @ [ h.commits; h.aborts_conflict; h.aborts_overflow; h.aborts_illegal;
           h.aborts_explicit; h.aborts_lock; h.aborts_spurious; h.lock_fallbacks;
           h.max_consecutive_aborts; h.attempts_hw; h.attempts_stm; h.attempts_tle;
           h.escalations_stm; h.stm_commits; h.stm_aborts; h.stm_steals ]))

(* Run one cell; an exception, fault, watchdog or failed check fails it. *)
let run_cell p spec ~seed =
  Probe.start_cell p spec.label;
  let result =
    match spec.body p ~seed with
    | r -> Ok r
    | exception Check_failed msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  let digest =
    match (result, p.Probe.mem, p.Probe.htm) with
    | Ok r, Some mem, Some htm ->
        Printf.sprintf "%s ops=%d %s" spec.label r.ops (stats_string mem htm)
    | _ -> ""
  in
  {
    spec;
    result;
    digest;
    setup_ns = Probe.phase_ns p Probe.Setup;
    run_ns = Probe.phase_ns p Probe.Run;
    run_delta = p.Probe.run_delta;
  }
