(* Executable shape claims: the headline qualitative results recorded in
   EXPERIMENTS.md, re-run at reduced durations so the tier-1 suite stays
   fast. Each test encodes an ordering / crossover / recovery claim the
   reproduction stands on — if a simulator or algorithm change flips one,
   these fail before `bench diff` ever sees a full-length artifact.

   The simulator is deterministic, so every comparison below is exact:
   the reduced-duration values were calibrated once and do not wobble. *)

(* Run a sweep's cells in this process and return their values in order. *)
let run cells = Runner.Sweep.values (Runner.Sweep.run cells)

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Figure 1 — queue throughput vs. threads.                            *)

let test_fig1 () =
  let rs = run (Workload.Queue_bench.cells ~threads:[ 2; 4; 8 ] ~duration:100_000 ()) in
  let thr queue threads =
    match
      List.find_opt
        (fun (r : Workload.Queue_bench.result) -> r.queue = queue && r.threads = threads)
        rs
    with
    | Some r -> r.throughput
    | None -> Alcotest.failf "fig1: missing %s x%d" queue threads
  in
  (* HTM >= Michael-Scott from 4 threads on (at 2 the curves touch and MS
     may be marginally ahead, as in the paper's left edge). *)
  List.iter
    (fun n ->
      check (Printf.sprintf "HTM >= MichaelScott at %d threads" n) true
        (thr "HTM" n >= thr "MichaelScott" n))
    [ 4; 8 ];
  (* ROP reclamation costs Michael-Scott throughput at every thread count. *)
  List.iter
    (fun n ->
      check (Printf.sprintf "MichaelScott+ROP below MichaelScott at %d threads" n) true
        (thr "MichaelScott+ROP" n < thr "MichaelScott" n))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Figure 3 — collect-dominated workload.                              *)

let test_fig3 () =
  let rs = run (Workload.Collect_dominated.cells ~threads:[ 2; 8 ] ~duration:150_000 ()) in
  List.iter
    (fun n ->
      let at_n =
        List.filter_map
          (fun (r : Workload.Collect_dominated.result) ->
            if r.threads = n then Some (r.algo, r.throughput) else None)
          rs
      in
      let ranked = List.sort (fun (_, a) (_, b) -> compare a b) at_n in
      match ranked with
      | (worst, worst_thr) :: (second, _) :: _ ->
        let best_thr = snd (List.nth ranked (List.length ranked - 1)) in
        Alcotest.(check string)
          (Printf.sprintf "Dynamic baseline worst at %d threads" n)
          "DynamicBaseline" worst;
        Alcotest.(check string)
          (Printf.sprintf "HOHRC second-worst at %d threads" n)
          "ListHoHRC" second;
        (* "far behind everything": the two-writes-per-node traversal
           costs the Dynamic baseline multiples, not percents. *)
        check (Printf.sprintf "Dynamic baseline far behind at %d threads" n) true
          (best_thr >= 4.0 *. worst_thr)
      | _ -> Alcotest.fail "fig3: too few algorithms")
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Figure 4 — collect-update crossover.                                *)

let test_fig4 () =
  let rs =
    run (Workload.Collect_update.cells_fig4 ~periods:[ 100_000; 400 ] ~duration:150_000 ())
  in
  let thr algo period =
    match
      List.find_opt
        (fun (r : Workload.Collect_update.result) -> r.algo = algo && r.period = period)
        rs
    with
    | Some r -> r.throughput
    | None -> Alcotest.failf "fig4: missing %s p%d" algo period
  in
  (* Long update periods: the transactional Append-Dereg scan beats the
     non-transactional scanners. *)
  check "ArrayDynAppendDereg > ArrayStatSearchNo at 100k-cycle period" true
    (thr "ArrayDynAppendDereg" 100_000 > thr "ArrayStatSearchNo" 100_000);
  check "ArrayDynAppendDereg > StaticBaseline at 100k-cycle period" true
    (thr "ArrayDynAppendDereg" 100_000 > thr "StaticBaseline" 100_000);
  (* At 400-cycle update storms the transactional collects abort so much
     that the non-transactional scanners finally win: the paper's
     crossover, sitting between 100k and 400 in this reduced sweep. *)
  check "ArrayStatSearchNo > ArrayDynAppendDereg at 400-cycle period" true
    (thr "ArrayStatSearchNo" 400 > thr "ArrayDynAppendDereg" 400)

(* ------------------------------------------------------------------ *)
(* Figure 8 — phased registration: SearchNo never recovers.            *)

let test_fig8 () =
  let phase_len = 250_000 and phases = 4 and bucket_len = 50_000 in
  let rs = run (Workload.Phased.cells ~phase_len ~phases ~bucket_len ()) in
  let per_phase = phase_len / bucket_len in
  let phase_mean (r : Workload.Phased.result) p =
    let vs =
      List.filteri (fun i _ -> i / per_phase = p) (List.map snd r.buckets)
    in
    List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
  in
  let find algo =
    match List.find_opt (fun (r : Workload.Phased.result) -> r.algo = algo) rs with
    | Some r -> r
    | None -> Alcotest.failf "fig8: missing %s" algo
  in
  (* Phases alternate low (even) / high (odd) registered-slot counts. *)
  let sn = find "ArrayStatSearchNo" in
  check "SearchNo degrades during the first high phase" true
    (phase_mean sn 1 < phase_mean sn 0);
  (* The sharpest signature in the paper: SearchNo scans its historical
     maximum, so its low-phase plateau never returns to the phase-0
     level. *)
  check "SearchNo's post-spike low plateau is permanently depressed" true
    (phase_mean sn 2 < 0.75 *. phase_mean sn 0);
  (* Append-Dereg dips during the high phase and fully recovers. *)
  let asa = find "ArrayStatAppendDereg" in
  check "ArrayStatAppendDereg dips during the high phase" true
    (phase_mean asa 1 < phase_mean asa 0);
  check "ArrayStatAppendDereg recovers in the next low phase" true
    (phase_mean asa 2 >= 0.8 *. phase_mean asa 0);
  let ada = find "ArrayDynAppendDereg" in
  check "ArrayDynAppendDereg recovers in the next low phase" true
    (phase_mean ada 2 >= 0.8 *. phase_mean ada 0);
  (* The Static baseline scans all slots regardless, so it is flat. *)
  let st = find "StaticBaseline" in
  let st0 = phase_mean st 0 in
  List.iter
    (fun p ->
      let m = phase_mean st p in
      check (Printf.sprintf "StaticBaseline flat through phase %d" p) true
        (Float.abs (m -. st0) <= 0.15 *. st0))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Placement ablation — the malloc-placement effect (docs/ALLOCATION.md). *)

(* Under a line-granularity HTM, the packing policy manufactures both
   conflict aborts and coherence ping-pong on structures whose threads
   touch disjoint words: line-packed must sit measurably above
   line-isolated on both metrics, on at least two structures (the
   acceptance bar), and the isolating policies must keep the
   false-sharing-only structures abort-free by construction. *)
let test_placement () =
  let saved = Workload.Driver.obs () in
  Workload.Driver.set_obs { saved with Workload.Driver.obs_profile = true };
  Fun.protect ~finally:(fun () -> Workload.Driver.set_obs saved) @@ fun () ->
  let module P = Workload.Placement_bench in
  let cell run ~policy ~threads = run ~policy ~threads ~duration:50_000 ~seed:7 in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun n ->
          let packed = cell run ~policy:Simmem.Line_packed ~threads:n in
          let isolated = cell run ~policy:Simmem.Line_isolated ~threads:n in
          check
            (Printf.sprintf "%s x%d: line-packed raises the conflict-abort rate" name n)
            true
            (packed.P.abort_rate > isolated.P.abort_rate +. 0.1);
          check
            (Printf.sprintf "%s x%d: line-packed multiplies line ping-pong" name n)
            true
            (packed.P.transfers > 10 * max 1 isolated.P.transfers);
          (* threads touch disjoint words: isolation leaves nothing to
             conflict on *)
          check
            (Printf.sprintf "%s x%d: line-isolated is abort-free" name n)
            true (isolated.P.abort_rate = 0.0))
        [ 4; 8 ])
    [ ("counters", P.counters_one); ("pairs", P.pairs_one) ];
  (* The realistic control: on the queue, per-node allocation traffic
     dominates and the placement premium is seed-level noise (isolation
     even costs extra transfers by giving every node a fresh line) — the
     contrast that makes the counters/pairs effect an allocator story
     rather than a workload one. Only the sanity floor is pinned. *)
  let qp = cell P.queue_one ~policy:Simmem.Line_packed ~threads:8 in
  let qi = cell P.queue_one ~policy:Simmem.Line_isolated ~threads:8 in
  check "queue x8: both policies abort under line granularity" true
    (qp.P.abort_rate > 0.01 && qi.P.abort_rate > 0.01);
  (* Cache-index-aware is line-isolated plus chunk coloring: equally
     abort-free on the hot structures. *)
  let ci = cell P.counters_one ~policy:Simmem.Cache_index_aware ~threads:8 in
  check "counters x8: cache-index-aware is abort-free" true (ci.P.abort_rate = 0.0)

(* ------------------------------------------------------------------ *)
(* Space at quiescence — §1.1 / §1.2.                                  *)

let space_find what rs subject =
  match
    List.find_opt (fun (r : Workload.Space_bench.result) -> r.subject = subject) rs
  with
  | Some r -> r
  | None -> Alcotest.failf "%s: missing %s" what subject

let test_space_queues () =
  let rs = run (Workload.Space_bench.queue_cells ()) in
  let f = space_find "space/queue" rs in
  let htm = f "queue/HTM" in
  check "HTM queue returns its memory (quiescent << peak)" true
    (htm.quiescent_words * 10 <= htm.peak_words);
  let ms = f "queue/MichaelScott" in
  check "pooled MichaelScott sits at its historical maximum" true
    (ms.quiescent_words = ms.peak_words);
  let rop = f "queue/MichaelScott+ROP" in
  check "ROP reclamation frees the drained entries" true
    (rop.quiescent_words * 10 <= rop.peak_words)

let test_space_collect () =
  let rs = run (Workload.Space_bench.collect_cells ()) in
  let f = space_find "space/collect" rs in
  (* Never shrink: the static arrays and the type-stable CAS baseline. *)
  List.iter
    (fun s ->
      let r = f ("collect/" ^ s) in
      check (s ^ " never shrinks (quiescent = peak)") true
        (r.quiescent_words = r.peak_words))
    [ "ArrayStatSearchNo"; "StaticBaseline"; "DynamicBaseline" ];
  (* Shrink to near nothing: the lists and the dynamic arrays. *)
  List.iter
    (fun s ->
      let r = f ("collect/" ^ s) in
      check (s ^ " returns its memory (quiescent << peak)") true
        (r.quiescent_words * 10 <= r.peak_words))
    [ "ListHoHRC"; "ListFastCollect"; "ArrayDynSearchResize"; "ArrayDynAppendDereg" ];
  (* ArrayStatAppendDereg frees its list nodes but keeps the static
     array at the historical maximum. *)
  let asa = f "collect/ArrayStatAppendDereg" in
  check "ArrayStatAppendDereg keeps its static array" true
    (asa.quiescent_words < asa.peak_words
    && asa.quiescent_words * 2 >= asa.peak_words)

let () =
  Alcotest.run "shapes"
    [
      ( "figures",
        [
          Alcotest.test_case "fig1: queue throughput orderings" `Slow test_fig1;
          Alcotest.test_case "fig3: collect-dominated orderings" `Slow test_fig3;
          Alcotest.test_case "fig4: collect-update crossover" `Slow test_fig4;
          Alcotest.test_case "fig8: SearchNo never recovers" `Slow test_fig8;
        ] );
      ( "placement",
        [
          Alcotest.test_case "line-packed manufactures aborts and ping-pong" `Slow
            test_placement;
        ] );
      ( "space",
        [
          Alcotest.test_case "queues at quiescence" `Quick test_space_queues;
          Alcotest.test_case "collect objects at quiescence" `Quick test_space_collect;
        ] );
    ]
