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

let test_fresh_values_unique () =
  let a = Workload.Driver.fresh_value () in
  let b = Workload.Driver.fresh_value () in
  Alcotest.(check bool) "distinct and nonzero" true (a <> b && a <> 0 && b <> 0)

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
        ] );
    ]
