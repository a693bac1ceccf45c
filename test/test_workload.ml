(* Smoke tests for the benchmark drivers: tiny runs of every figure's
   workload, checking structural properties of the results (non-empty,
   positive throughputs, sane shapes) rather than performance. *)

(* Run a sweep's cells in this process and return their values in order. *)
let run cells = Runner.Sweep.values (Runner.Sweep.run cells)

let test_queue_bench () =
  let rs = run (Workload.Queue_bench.cells ~threads:[ 2; 4 ] ~duration:60_000 ~seed:3 ()) in
  Alcotest.(check int) "3 queues x 2 thread counts" 6 (List.length rs);
  List.iter
    (fun (r : Workload.Queue_bench.result) ->
      if r.throughput <= 0.0 then Alcotest.failf "%s: zero throughput" r.queue)
    rs;
  let t = Workload.Queue_bench.to_table rs in
  Alcotest.(check int) "rows" 2 (List.length t.rows);
  Alcotest.(check int) "columns" 3 (List.length t.columns)

let test_latency () =
  let rs = run (Workload.Latency.cells ~updates:200 ~seed:3 ()) in
  Alcotest.(check int) "all algorithms" (List.length Collect.all) (List.length rs);
  let direct =
    List.filter_map
      (fun (r : Workload.Latency.result) -> if r.direct then Some r.ns_per_update else None)
      rs
  in
  let indirect =
    List.filter_map
      (fun (r : Workload.Latency.result) ->
        if not r.direct then Some r.ns_per_update else None)
      rs
  in
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Alcotest.(check bool) "two latency classes: indirect costlier" true
    (avg indirect > avg direct +. 5.0)

let test_collect_dominated () =
  let rs = run (Workload.Collect_dominated.cells ~threads:[ 4 ] ~duration:60_000 ~seed:3 ()) in
  Alcotest.(check int) "all algorithms" (List.length Collect.all) (List.length rs);
  List.iter
    (fun (r : Workload.Collect_dominated.result) ->
      if r.throughput <= 0.0 then Alcotest.failf "%s: zero throughput" r.algo)
    rs

let test_collect_update () =
  let rs =
    run
      (Workload.Collect_update.cells_fig4 ~updaters:7 ~periods:[ 50_000; 2_000 ]
         ~duration:60_000 ~seed:3 ())
  in
  Alcotest.(check int) "6 algos x 2 periods" 12 (List.length rs);
  (* contention hurts the transactional collects *)
  let tp name p =
    (List.find
       (fun (r : Workload.Collect_update.result) ->
         r.period = p && String.length r.algo >= 5 && String.sub r.algo 0 5 = name)
       rs)
      .throughput
  in
  Alcotest.(check bool) "ADA degrades under contention" true
    (tp "Array" 2_000 <= tp "Array" 50_000 +. 0.2)

let test_fig5_best_dominates () =
  let rs =
    Workload.Collect_update.fig5_collate
      (run
         (Workload.Collect_update.cells_fig5 ~updaters:7 ~periods:[ 20_000 ] ~duration:60_000
            ~seed:3 ()))
  in
  (* per period: 3 fixed + best + adaptive *)
  Alcotest.(check int) "5 series" 5 (List.length rs);
  List.iter
    (fun (r : Workload.Collect_update.result) ->
      if r.throughput <= 0.0 then Alcotest.failf "%s: zero throughput" r.label)
    rs

let test_fig6_histogram () =
  let rs =
    run
      (Workload.Collect_update.cells_fig6 ~updaters:7 ~periods:[ 10_000 ] ~duration:60_000
         ~seed:3 ())
  in
  match rs with
  | [ r ] ->
    let total = List.fold_left (fun a (_, n) -> a + n) 0 r.histogram in
    Alcotest.(check bool) "histogram populated" true (total > 0);
    List.iter
      (fun (s, _) ->
        if s < 1 || s > 32 || s land (s - 1) <> 0 then
          Alcotest.failf "invalid step size %d in histogram" s)
      r.histogram
  | _ -> Alcotest.fail "expected one result"

let test_collect_dereg () =
  let rs =
    run
      (Workload.Collect_dereg.cells ~churners:7 ~periods:[ 100_000; 2_000 ] ~duration:60_000
         ~seed:3 ())
  in
  Alcotest.(check int) "6 algos x 2 periods" 12 (List.length rs);
  List.iter
    (fun (r : Workload.Collect_dereg.result) ->
      if r.throughput < 0.0 then Alcotest.failf "%s: negative throughput" r.algo)
    rs

let test_phased () =
  let rs =
    run
      (Workload.Phased.cells ~updaters:7 ~phase_len:100_000 ~phases:4 ~bucket_len:50_000
         ~seed:3 ())
  in
  Alcotest.(check int) "5 algorithms" 5 (List.length rs);
  List.iter
    (fun (r : Workload.Phased.result) ->
      Alcotest.(check int) (r.algo ^ ": buckets") 8 (List.length r.buckets);
      let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 r.buckets in
      Alcotest.(check bool) (r.algo ^ ": collected something") true (total > 0.0))
    rs

let test_space_queues () =
  let rs = run (Workload.Space_bench.queue_cells ~peak_len:200 ~seed:3 ()) in
  let get name =
    List.find (fun (r : Workload.Space_bench.result) -> r.subject = "queue/" ^ name) rs
  in
  let htm = get "HTM" and ms = get "MichaelScott" and rop = get "MichaelScott+ROP" in
  Alcotest.(check bool) "HTM drains its memory" true (htm.quiescent_words * 4 < htm.peak_words);
  Alcotest.(check bool) "MS retains historical max" true (ms.quiescent_words * 2 > ms.peak_words);
  Alcotest.(check bool) "ROP reclaims most" true (rop.quiescent_words * 2 < rop.peak_words)

let test_space_collect () =
  let rs = run (Workload.Space_bench.collect_cells ~peak:128 ~seed:3 ()) in
  let get name =
    List.find (fun (r : Workload.Space_bench.result) -> r.subject = "collect/" ^ name) rs
  in
  let ada = get "ArrayDynAppendDereg" in
  Alcotest.(check bool) "dynamic array shrinks" true (ada.quiescent_words * 8 < ada.peak_words);
  let stat = get "StaticBaseline" in
  Alcotest.(check bool) "static array keeps its footprint" true
    (stat.quiescent_words = stat.peak_words)

let test_replayability () =
  (* The whole point of the simulator: identical seeds give bit-identical
     experiment results, workload RNG and scheduler included. *)
  let once () =
    run (Workload.Collect_dominated.cells ~threads:[ 6 ] ~duration:50_000 ~seed:77 ())
    |> List.map (fun (r : Workload.Collect_dominated.result) -> (r.algo, r.throughput))
  in
  let a = once () and b = once () in
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) "same algo order" n1 n2;
      Alcotest.(check (float 0.0)) (n1 ^ ": identical throughput") t1 t2)
    a b

(* Pins the collect cells' behaviour: each run's result and the metrics
   registry it fed, digested together. Any change to what a cell
   simulates (who registers, updates or deregisters when, how long the
   handles stay open, what is torn down, which statistics are reset)
   moves a digest. Each run is a sweep cell, so the value supply and
   machine labels start afresh whatever ran before it. *)
let pin_digest f =
  let cell () =
    let reg = Obs.Metrics.create () in
    Workload.Driver.set_obs { Workload.Driver.no_obs with obs_metrics = Some reg };
    let r = f () in
    Digest.to_hex
      (Digest.string
         (Marshal.to_string r [ Marshal.No_sharing ]
         ^ Obs.Json.to_string (Obs.Metrics.to_json reg)))
  in
  List.hd (run [ Runner.Cell.v ~label:"pin" cell ])

let maker name = Option.get (Collect.find_maker name)

let collect_pins () =
  let open Workload in
  let ada = maker "ArrayDynAppendDereg" and hohrc = maker "ListHoHRC" in
  [
    ( "fig4 ArrayDynAppendDereg adaptive",
      "e86f9ec4c307e202fb54b64b59e1c2d5",
      pin_digest (fun () ->
          Collect_update.run_one ada ~updaters:3 ~period:2_000 ~duration:40_000
            ~step:Collect.Intf.Adaptive ~seed:5) );
    ( "fig4 ListHoHRC step 8",
      "353d6f6fdae320e722e5f908ab017d3f",
      pin_digest (fun () ->
          Collect_update.run_one hohrc ~updaters:3 ~period:2_000 ~duration:40_000
            ~step:(Collect.Intf.Fixed 8) ~seed:5) );
    ( "fig7 collect-dereg",
      "89793a04596d2c4edd0e55bc4466b352",
      pin_digest (fun () ->
          Collect_dereg.run_one ada ~churners:3 ~dereg_period:2_000 ~duration:60_000
            ~step:(Collect.Intf.Fixed 32) ~seed:5) );
    ( "fig8 phased",
      "b828454d705c72b4523a8346942435ac",
      pin_digest (fun () ->
          Phased.run_one ada ~updaters:3 ~phase_len:30_000 ~phases:2 ~bucket_len:20_000
            ~step:(Collect.Intf.Fixed 32) ~seed:5) );
    ( "chaos collect crash",
      "9f191f7c62e2d703a43bb4656a5a4852",
      pin_digest (fun () -> Chaos_bench.collect_crash_one ~seed:5 hohrc) );
    ( "chaos spurious",
      "70ab3687ad8763794f77e30618ec150d",
      pin_digest (fun () -> Chaos_bench.spurious_one ~seed:5 ada) );
    ( "ablate tle after 4",
      "a0bbff747e6b5720a384d8f434bc5c11",
      pin_digest (fun () ->
          Collect_cell.tle_one
            ~htm_config:{ Htm.default_config with tle = Htm.Tle_after 4 }
            ~duration:40_000 ~seed:5) );
    ( "ablate store buffer 16",
      "d7ca3a4b1149affbcb7ce6e83657dd99",
      pin_digest (fun () -> Collect_cell.store_buffer_one 16 ~duration:40_000 ~seed:5) );
    ( "ext starvation",
      "b1e0b87ed0558eedfad69b10afac4140",
      pin_digest (fun () ->
          Collect_cell.starvation_one (maker "ListFastCollectDeferred") ~churn_period:2_000
            ~duration:40_000 ~seed:5) );
    ( "chaos stm crash",
      "69171ff8be76e65d6d110ffa78e83b27",
      pin_digest (fun () -> Chaos_bench.stm_crash_one ~seed:5 ()) );
  ]

let test_collect_pins () =
  List.iter
    (fun (name, expected, actual) -> Alcotest.(check string) name expected actual)
    (collect_pins ())

let test_fresh_values_unique () =
  let a = Workload.Driver.fresh_value () in
  let b = Workload.Driver.fresh_value () in
  Alcotest.(check bool) "distinct and nonzero" true (a <> b && a <> 0 && b <> 0)

(* Counts read back from a throughput must be the counts that made it. *)
let test_ops_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"ops_of_per_us inverts ops_per_us"
       QCheck.(pair (int_range 0 10_000_000) (int_range 1 100_000_000))
       (fun (ops, duration) ->
         let per_us = Workload.Driver.ops_per_us ~ops ~duration in
         Workload.Driver.ops_of_per_us ~per_us ~duration = ops))

let () =
  Alcotest.run "workload"
    [
      ( "drivers",
        [
          Alcotest.test_case "fig1 queue bench" `Quick test_queue_bench;
          Alcotest.test_case "5.1 latency" `Quick test_latency;
          Alcotest.test_case "fig3 collect-dominated" `Quick test_collect_dominated;
          Alcotest.test_case "fig4 collect-update" `Quick test_collect_update;
          Alcotest.test_case "fig5 steps" `Quick test_fig5_best_dominates;
          Alcotest.test_case "fig6 histogram" `Quick test_fig6_histogram;
          Alcotest.test_case "fig7 collect-dereg" `Quick test_collect_dereg;
          Alcotest.test_case "fig8 phased" `Quick test_phased;
          Alcotest.test_case "space queues" `Quick test_space_queues;
          Alcotest.test_case "space collect" `Quick test_space_collect;
          Alcotest.test_case "unique values" `Quick test_fresh_values_unique;
          Alcotest.test_case "replayability" `Quick test_replayability;
          Alcotest.test_case "collect cells pinned" `Quick test_collect_pins;
          test_ops_round_trip;
        ] );
    ]
