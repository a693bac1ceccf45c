(* The zero-allocation contract of the flat simulator core, and the
   determinism contract of the sweep runner that the flattening must not
   disturb.

   The allocation tests measure [Gc.minor_words] deltas around complete
   benchmark cells run with no tap, tracer, profiler or forensics
   installed. They are amortized bounds, not literal zeroes: thread spawn,
   machine construction and the workload's own bookkeeping (the ops
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

(* The determinism contract: the same cells produce byte-identical tables
   whatever --jobs is. QCheck varies duration and seed; equality is on
   the rendered table (the exact bytes the artifact embeds). *)
let render tables =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Workload.Report.print ppf) tables;
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
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_jobs_byte_identity;
          Alcotest.test_case "scale cells, jobs 1 vs 8" `Quick
            test_scale_jobs_byte_identity;
        ] );
    ]
