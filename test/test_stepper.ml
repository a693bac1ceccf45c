(* Tests for the per-thread telescoping step controller wrapper. *)

let in_thread f = Sim.run ~seed:1 [| f |]

(* A fresh machine: the adaptive table is sized by its heap. *)
let make policy ~max_step =
  Collect.Stepper.make (Htm.create (Simmem.create ())) policy ~max_step

let test_fixed_clamped () =
  let s = make (Collect.Intf.Fixed 32) ~max_step:27 in
  in_thread (fun ctx -> Alcotest.(check int) "clamped to max" 27 (Collect.Stepper.get s ctx));
  let s2 = make (Collect.Intf.Fixed 0) ~max_step:27 in
  in_thread (fun ctx -> Alcotest.(check int) "clamped to 1" 1 (Collect.Stepper.get s2 ctx))

let test_adaptive_pow2_bound () =
  (* max_step 27 must round the adaptive ceiling down to 16 *)
  let s = make Collect.Intf.Adaptive ~max_step:27 in
  in_thread (fun ctx ->
      for _ = 1 to 100 do
        Collect.Stepper.on_commit s ctx
      done;
      Alcotest.(check int) "adaptive capped at 16" 16 (Collect.Stepper.get s ctx))

let test_per_thread_independence () =
  let s = make Collect.Intf.Adaptive ~max_step:32 in
  let step0 = ref 0 and step1 = ref 0 in
  Sim.run ~seed:2
    [|
      (fun ctx ->
        for _ = 1 to 50 do
          Collect.Stepper.on_commit s ctx
        done;
        step0 := Collect.Stepper.get s ctx);
      (fun ctx ->
        for _ = 1 to 50 do
          Collect.Stepper.on_abort s ctx
        done;
        step1 := Collect.Stepper.get s ctx);
    |];
  Alcotest.(check int) "committing thread grew" 32 !step0;
  Alcotest.(check int) "aborting thread stayed at floor" 1 !step1

let test_overhead_charged () =
  let charged policy =
    let s = make policy ~max_step:32 in
    let d = ref 0 in
    in_thread (fun ctx ->
        let t0 = Sim.clock ctx in
        Collect.Stepper.on_commit s ctx;
        d := Sim.clock ctx - t0);
    !d
  in
  Alcotest.(check int) "fixed is free" 0 (charged (Collect.Intf.Fixed 8));
  Alcotest.(check bool) "instrumented pays" true (charged (Collect.Intf.Fixed_instrumented 8) > 0);
  Alcotest.(check bool) "adaptive pays" true (charged Collect.Intf.Adaptive > 0)

let test_histogram_merges_threads () =
  let s = make Collect.Intf.Adaptive ~max_step:32 in
  Sim.run ~seed:3
    [|
      (fun ctx -> Collect.Stepper.record_collected s ctx 10);
      (fun ctx -> Collect.Stepper.record_collected s ctx 5);
    |];
  Alcotest.(check (list (pair int int))) "merged across threads" [ (1, 15) ]
    (Collect.Stepper.histogram s)

let test_fixed_histogram_empty () =
  let s = make (Collect.Intf.Fixed 8) ~max_step:32 in
  in_thread (fun ctx -> Collect.Stepper.record_collected s ctx 10);
  Alcotest.(check (list (pair int int))) "fixed has no histogram" [] (Collect.Stepper.histogram s)

let () =
  Alcotest.run "stepper"
    [
      ( "unit",
        [
          Alcotest.test_case "fixed clamped" `Quick test_fixed_clamped;
          Alcotest.test_case "adaptive pow2 bound" `Quick test_adaptive_pow2_bound;
          Alcotest.test_case "per-thread independence" `Quick test_per_thread_independence;
          Alcotest.test_case "overhead charged" `Quick test_overhead_charged;
          Alcotest.test_case "histogram merges" `Quick test_histogram_merges_threads;
          Alcotest.test_case "fixed histogram empty" `Quick test_fixed_histogram_empty;
        ] );
    ]
