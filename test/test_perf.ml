(* The zero-allocation contract of the flat simulator core, and the
   determinism contract of the sweep runner that the flattening must not
   disturb.

   The allocation tests measure [Gc.minor_words] deltas around complete
   benchmark cells run with no observer sink attached. They are amortized
   bounds, not literal zeroes: thread spawn, machine construction and the
   workload's own bookkeeping (the ops
   arrays, the result record) allocate, but the per-access cost must not —
   a heap word per simulated access would put tens of words per operation
   on the GC and show up as thousands of words per thousand accesses. *)

(* The fig1 queues whose hot paths carry the budgets: the HTM queue, and
   the pooled and hazard-pointer Michael-Scott queues, whose reclamation
   hooks are dispatched through the shared skeleton on every operation. *)
let fig1_queues = [ "HTM"; "MichaelScott"; "MichaelScott+ROP" ]

let run_fig1_cell name ~threads ~duration =
  let mk = Option.get (Hqueue.find_maker name) in
  Workload.Queue_bench.run_one mk ~threads ~duration ~prefill:64 ~seed:11

(* Minor words allocated by [f], with the workload warmed so one-time
   lazy structures (domain-local state, grown pools) are already built. *)
let minor_delta f =
  ignore (f ());
  ignore (f ());
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0)

(* Simulated memory accesses performed by [f], from a private registry. *)
let accesses_of f =
  let reg = Obs.Metrics.create () in
  let saved = Workload.Driver.obs () in
  Workload.Driver.set_obs { saved with obs_metrics = Some reg };
  ignore (f ());
  Workload.Driver.set_obs saved;
  let snap = Obs.Metrics.snapshot reg in
  List.fold_left
    (fun acc name ->
      match List.assoc_opt ("mem." ^ name) snap with
      | Some (Obs.Metrics.Counter { total; _ }) -> acc + total
      | _ -> acc)
    0
    [ "reads"; "writes"; "atomics"; "allocs"; "frees" ]

let test_zero_alloc_per_access () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  List.iter
    (fun name ->
      let f () = run_fig1_cell name ~threads:16 ~duration:50_000 in
      let accesses = accesses_of f in
      Alcotest.(check bool) (name ^ ": cell performs real work") true (accesses > 1_000);
      let _, words = minor_delta f in
      (* The non-access overhead (spawn, malloc'd queue nodes' labels, the
         result) is bounded by a small constant per thread and operation;
         budget half a word per access on top and the old per-access cost
         (event records, Queue.t cells, closures: tens of words each) still
         trips the assertion with an order of magnitude to spare. *)
      let budget = 50_000.0 +. (0.5 *. float_of_int accesses) in
      if words > budget then
        Alcotest.failf
          "%s fig1 cell allocated %.0f minor words for %d simulated accesses (budget \
           %.0f): the no-observer hot path is allocating again"
          name words accesses budget)
    fig1_queues

let test_zero_alloc_single_thread () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  List.iter
    (fun name ->
      (* One thread, no contention, no retries: the strictest amortized
         bound. Everything here is steady-state loop; the budget is purely
         the per-cell fixed cost. *)
      let f () = run_fig1_cell name ~threads:1 ~duration:100_000 in
      let accesses = accesses_of f in
      Alcotest.(check bool) (name ^ ": cell performs real work") true (accesses > 500);
      let _, words = minor_delta f in
      let budget = 20_000.0 in
      if words > budget then
        Alcotest.failf
          "single-thread %s fig1 cell allocated %.0f minor words for %d accesses \
           (budget %.0f)"
          name words accesses budget)
    fig1_queues

(* Minor words that [txs] steady-state transactions of [body] allocate
   on one thread under [config], over a 128-word block. The first
   transaction runs outside the window: it allocates the pooled
   descriptor, and a read set that passes 16 entries grows its hash
   index; every later transaction must reuse both. The window is
   measured from inside the simulated thread, so it covers only the
   transactions. Returns the words and the operations that completed. *)
let steady_state_words config body =
  let mem = Simmem.create () in
  let htm = Htm.create ~config mem in
  let a = Simmem.malloc mem (Sim.boot ()) 128 in
  let body = body a in
  let txs = 1_000 in
  let words = ref 0. in
  Sim.run ~seed:5
    [|
      (fun ctx ->
        ignore (Htm.atomic htm ctx body);
        let w0 = Gc.minor_words () in
        for _ = 1 to txs do
          ignore (Htm.atomic htm ctx body)
        done;
        words := Gc.minor_words () -. w0);
    |];
  let st = Htm.stats htm in
  Alcotest.(check int) "every transaction committed" (txs + 1) (st.commits + st.stm_commits);
  !words

let reads n a tx =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Htm.read tx (a + i)
  done;
  !s

(* [n] stores to [a + 64 ...]: stripes no read of the block shares, so
   the next transaction's reads are never stale under Gv5. *)
let writes n a tx =
  for i = 0 to n - 1 do
    Htm.write tx (a + 64 + i) i
  done

(* The 4-word slack is the measurement's own boxed floats, far below one
   word per transaction. *)
let check_zero_alloc what words =
  if words > 4. then
    Alcotest.failf
      "1000 steady-state %s allocated %.0f minor words: the transactional path is \
       allocating again"
      what words

(* A long hardware read set in steady state: a 40-read transaction
   repeated on one thread allocates nothing at all. *)
let test_zero_alloc_long_read_set () =
  check_zero_alloc "40-read transactions"
    (steady_state_words Htm.default_config (reads 40))

(* The same budget on the software path, reached three ways: every
   attempt in software ([Stm_after 0]) reading 40 words, or reading 8 and
   writing 8 (the commit takes stripe locks and writes back), and a
   48-store transaction that overflows Rock's store buffer and escalates
   on every call ([hybrid_config]). The escalated attempt runs on the
   hardware path's pooled descriptor, builds no event without a sink and
   raises a prebuilt abort exception, so none of the three allocates. *)
let test_zero_alloc_stm () =
  let stm0 = { Htm.default_config with stm = Htm.Stm_after 0 } in
  check_zero_alloc "40-read software transactions" (steady_state_words stm0 (reads 40));
  check_zero_alloc "8-read 8-write software transactions"
    (steady_state_words stm0 (fun a tx ->
         writes 8 a tx;
         reads 8 a tx));
  check_zero_alloc "48-store escalated transactions"
    (steady_state_words Htm.hybrid_config (writes 48))

(* The scheduler's switch path against the runtime's own floor: the
   continuation the runtime allocates on every [perform]. The floor is
   measured, not assumed, with a bare deep-handler loop shaped like
   [Sim.run] (handler hoisted, continuations parked in an array and
   resumed in turn); that loop also boxes each parked continuation in a
   [Some], two words, which it subtracts. A [Sim] switch may allocate no
   more than the floor, so boxing a parked thread's state (two more words
   per switch) fails this. *)
type _ Effect.t += Bare_yield : unit Effect.t

let continuation_words ~fibers ~rounds =
  let conts : (unit, unit) Effect.Deep.continuation option array =
    Array.make fibers None
  in
  let live = ref fibers in
  let handler i : (unit, unit) Effect.Deep.handler =
    let some_on_yield = Some (fun k -> conts.(i) <- Some k) in
    {
      retc = (fun () -> decr live);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Bare_yield -> some_on_yield | _ -> None);
    }
  in
  let body () =
    for _ = 1 to rounds do
      Effect.perform Bare_yield
    done
  in
  for i = 0 to fibers - 1 do
    Effect.Deep.match_with body () (handler i)
  done;
  (* Every fiber is parked at its first yield; count from here. *)
  let w0 = Gc.minor_words () in
  while !live > 0 do
    for i = 0 to fibers - 1 do
      match conts.(i) with
      | Some k ->
        conts.(i) <- None;
        Effect.Deep.continue k ()
      | None -> ()
    done
  done;
  let per_perform = (Gc.minor_words () -. w0) /. float_of_int (fibers * (rounds - 1)) in
  per_perform -. 2.

let test_switch_alloc_floor () =
  let fibers = 16 and ticks = 20_000 in
  let floor = continuation_words ~fibers ~rounds:ticks in
  (* Equal tick costs keep every clock tied, so each tick yields and each
     pick takes the tie-break path. *)
  let body ctx =
    for _ = 1 to ticks do
      Sim.tick ctx 1
    done
  in
  let y0 = !Sim.yield_count in
  let w0 = Gc.minor_words () in
  Sim.run ~seed:3 (Array.make fibers body);
  let words = Gc.minor_words () -. w0 in
  let switches = !Sim.yield_count - y0 in
  Alcotest.(check bool) "every tick switched" true (switches >= fibers * (ticks - 1));
  let per_switch = words /. float_of_int switches in
  (* 0.1 word covers the run's fixed setup spread over the switches. *)
  let budget = floor +. 0.1 in
  if per_switch > budget then
    Alcotest.failf
      "a 16-fiber tick loop allocated %.2f minor words per switch; the runtime's \
       per-perform continuation is %.2f (budget %.2f): the switch path is allocating \
       again"
      per_switch floor budget

(* Machine construction costs what the run uses. Blocks past 256 words
   skip the minor heap, and a machine that built its 257-slot per-thread
   tables or a fixed 4,096-word heap up front put about 23,000 words
   straight onto the major heap per build. Counted, not timed: words
   allocated on the major heap minus those promoted into it, averaged
   over 100 builds. *)
let test_machine_construction () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  let build () = ignore (Sys.opaque_identity (Workload.Driver.machine ~threads:16 ())) in
  build ();
  build ();
  let builds = 100 in
  let _, p0, m0 = Gc.counters () in
  for _ = 1 to builds do
    build ()
  done;
  let _, p1, m1 = Gc.counters () in
  let direct = (m1 -. m0 -. (p1 -. p0)) /. float_of_int builds in
  let budget = 1024. in
  if direct > budget then
    Alcotest.failf
      "Driver.machine ~threads:16 allocated %.0f words directly on the major heap per \
       build (budget %.0f): a per-thread table or the default heap is sized past what \
       the run uses again"
      direct budget

(* A queue's host-side per-thread tables have one slot per thread the
   heap tracks ({!Simmem.slots}). Built for {!Sim.max_threads} + 1, each
   was a 257-word block on the major heap in every cell's setup: 2 to 4
   per queue. *)
let test_queue_construction () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  let m = Workload.Driver.machine ~threads:16 () in
  List.iter
    (fun (mk : Hqueue.Intf.maker) ->
      let build () =
        let q = mk.make m.htm m.boot ~num_threads:16 in
        q.destroy m.boot
      in
      build ();
      let builds = 100 in
      let _, p0, m0 = Gc.counters () in
      for _ = 1 to builds do
        build ()
      done;
      let _, p1, m1 = Gc.counters () in
      let direct = (m1 -. m0 -. (p1 -. p0)) /. float_of_int builds in
      if direct > 0. then
        Alcotest.failf
          "building a %s queue for 16 threads allocated %.0f words directly on the \
           major heap: a per-thread table is sized past the heap's thread capacity"
          mk.queue_name direct)
    (Hqueue.all_with_extensions @ [ Hqueue.ebr ])

(* The same for the collect objects: the adaptive step table and the
   static baseline's free-slot stacks have one slot per thread the heap
   tracks. Built for {!Sim.max_threads} + 1, each was a 258-word block
   on the major heap per collect object. *)
let test_collect_construction () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  let m = Workload.Driver.machine ~threads:16 () in
  let cfg = { Collect.Intf.default_cfg with step = Collect.Intf.Adaptive } in
  List.iter
    (fun (mk : Collect.Intf.maker) ->
      let build () =
        let c = mk.make m.htm m.boot cfg in
        c.destroy m.boot
      in
      build ();
      let builds = 100 in
      let _, p0, m0 = Gc.counters () in
      for _ = 1 to builds do
        build ()
      done;
      let _, p1, m1 = Gc.counters () in
      let direct = (m1 -. m0 -. (p1 -. p0)) /. float_of_int builds in
      if direct > 0. then
        Alcotest.failf
          "building a %s collect object for 16 threads allocated %.0f words directly on \
           the major heap: a per-thread table is sized past the heap's thread capacity"
          mk.algo_name direct)
    Collect.all_with_extensions

(* The determinism contract: the same cells produce byte-identical tables
   whatever --jobs is. QCheck varies duration and seed; equality is on
   the rendered table (the exact bytes the artifact embeds). *)
let render tables =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Obs.Table.print ppf) tables;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_jobs_byte_identity =
  QCheck.Test.make ~name:"fig1 tables byte-identical at --jobs 1 vs 8" ~count:4
    QCheck.(pair (int_range 10_000 40_000) (int_range 1 1000))
    (fun (duration, seed) ->
      let run jobs =
        let outcomes =
          Runner.Sweep.run ~jobs
            (Workload.Queue_bench.cells
               ~threads:[ 2; 8 ] ~duration ~seed ())
        in
        render [ Workload.Queue_bench.to_table (Runner.Sweep.values outcomes) ]
      in
      String.equal (run 1) (run 8))

let test_scale_jobs_byte_identity () =
  (* The scale cells at a reduced thread ladder: wide machines must obey
     the same contract. *)
  let run jobs =
    let outcomes =
      Runner.Sweep.run ~jobs
        (Workload.Scale_bench.cells ~threads:[ 16; 64 ] ~duration:20_000 ~seed:9 ())
    in
    render (Workload.Scale_bench.to_tables (Runner.Sweep.values outcomes))
  in
  Alcotest.(check string) "scale tables identical at jobs 1 vs 8" (run 1) (run 8)

let () =
  Alcotest.run "perf"
    [
      ( "zero-alloc",
        [
          Alcotest.test_case "fig1 x16 cell, no observers" `Quick
            test_zero_alloc_per_access;
          Alcotest.test_case "fig1 x1 cell, strict budget" `Quick
            test_zero_alloc_single_thread;
          Alcotest.test_case "40-read HTM tx, steady state" `Quick
            test_zero_alloc_long_read_set;
          Alcotest.test_case "STM-path txs, steady state" `Quick test_zero_alloc_stm;
          Alcotest.test_case "16-fiber switch, runtime floor" `Quick
            test_switch_alloc_floor;
        ] );
      ( "construction",
        [
          Alcotest.test_case "Driver.machine x16, direct major words" `Quick
            test_machine_construction;
          Alcotest.test_case "queues x16, direct major words" `Quick test_queue_construction;
          Alcotest.test_case "collects x16, direct major words" `Quick
            test_collect_construction;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_jobs_byte_identity;
          Alcotest.test_case "scale cells, jobs 1 vs 8" `Quick
            test_scale_jobs_byte_identity;
        ] );
    ]
