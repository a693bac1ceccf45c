(* Tests for the fault-injection subsystem: deterministic fault plans,
   scheduler-level kills and stalls, the liveness watchdog, crash-safe TLE,
   spurious aborts and the retry budget — and the survivability of every
   algorithm under the chaos workloads. *)

let contains s affix = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

let test_trace_determinism () =
  let spec =
    { Sim.Fault.none with fault_seed = 99; stall_rate = 0.02; stall_cycles = 500;
      kill_rate = 0.001; max_random_kills = 2 }
  in
  let trace () =
    let faults = Sim.Fault.make spec in
    Sim.run ~seed:5 ~faults
      (Array.make 4 (fun ctx ->
           for _ = 1 to 500 do
             Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 20)
           done));
    Sim.Fault.trace faults
  in
  let t1 = trace () in
  Alcotest.(check bool) "something was injected" true (String.length t1 > 0);
  Alcotest.(check string) "same spec, same program, same fault trace" t1 (trace ())

let test_scheduled_kill () =
  let faults = Sim.Fault.make { Sim.Fault.none with kills_at = [ (1, 5_000) ] } in
  let completed = Array.make 3 false in
  Sim.run ~seed:6 ~faults
    (Array.init 3 (fun i ->
         fun ctx ->
           while Sim.clock ctx < 20_000 do
             Sim.tick ctx 10
           done;
           completed.(i) <- true));
  Alcotest.(check bool) "thread 0 survives" true completed.(0);
  Alcotest.(check bool) "thread 1 killed" false completed.(1);
  Alcotest.(check bool) "thread 2 survives" true completed.(2);
  Alcotest.(check int) "exactly one kill" 1 (Sim.Fault.kills faults);
  (match Sim.Fault.events faults with
   | [ { Sim.Fault.ev_tid = 1; ev_clock; ev_kind = Sim.Fault.Killed } ] ->
     Alcotest.(check bool) "kill at first point past 5000" true
       (ev_clock >= 5_000 && ev_clock < 5_100)
   | _ -> Alcotest.fail "expected exactly one kill event on thread 1")

let test_random_kill_budget () =
  let faults =
    Sim.Fault.make
      { Sim.Fault.none with fault_seed = 3; kill_rate = 0.5; max_random_kills = 2 }
  in
  let completed = ref 0 in
  Sim.run ~seed:7 ~faults
    (Array.make 5 (fun ctx ->
         for _ = 1 to 100 do
           Sim.tick ctx 10
         done;
         incr completed));
  Alcotest.(check int) "kill budget exhausted exactly" 2 (Sim.Fault.kills faults);
  Alcotest.(check int) "everyone else survives" 3 !completed

let test_stalls () =
  let faults =
    Sim.Fault.make
      { Sim.Fault.none with fault_seed = 4; stall_rate = 0.05; stall_cycles = 1_000 }
  in
  let completed = ref 0 in
  Sim.run ~seed:8 ~faults
    (Array.make 3 (fun ctx ->
         for _ = 1 to 300 do
           Sim.tick ctx 10
         done;
         incr completed));
  Alcotest.(check int) "stalls do not kill anyone" 3 !completed;
  Alcotest.(check bool) "stalls happened" true (Sim.Fault.stalls faults > 0);
  List.iter
    (fun (e : Sim.Fault.event) ->
      match e.Sim.Fault.ev_kind with
      | Sim.Fault.Stalled d ->
        Alcotest.(check bool) "stall duration in [500,1000)" true (d >= 500 && d < 1_000)
      | _ -> ())
    (Sim.Fault.events faults)

let test_shield_suppresses_faults () =
  let faults = Sim.Fault.make { Sim.Fault.none with kills_at = [ (0, 100) ] } in
  let reached = ref 0 in
  let after_shield = ref false in
  Sim.run ~seed:9 ~faults
    [|
      (fun ctx ->
        Sim.shield ctx (fun () ->
            while Sim.clock ctx < 5_000 do
              Sim.tick ctx 10
            done;
            reached := Sim.clock ctx);
        Sim.tick ctx 10;
        after_shield := true);
    |];
  Alcotest.(check bool) "shielded section ran to completion" true (!reached >= 5_000);
  Alcotest.(check bool) "kill fired at the first unshielded point" false !after_shield;
  Alcotest.(check int) "one kill" 1 (Sim.Fault.kills faults)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

let test_watchdog_fires () =
  (* Two spinning threads: yields happen, the scheduler keeps picking, and
     no one ever notes progress. *)
  let spin ctx = while true do Sim.tick ctx 10 done in
  match
    Sim.run ~seed:10 ~watchdog:1_000
      ~diag:(fun () -> "  extra-diag-section\n")
      [| spin; spin |]
  with
  | () -> Alcotest.fail "watchdog never fired on a progress-free spin"
  | exception Sim.Watchdog msg ->
    Alcotest.(check bool) "diagnostic names thread 0" true (contains msg "thread 0");
    Alcotest.(check bool) "diagnostic names thread 1" true (contains msg "thread 1");
    Alcotest.(check bool) "caller diag section included" true
      (contains msg "extra-diag-section")

(* The diagnostic's run-state words. A negative budget fires at the
   first pick, before any thread ran; a thread that returned at once is
   finished while its spinning peers are parked (two of them, so that
   they keep yielding to each other). *)
let test_watchdog_state_words () =
  let spin ctx = while true do Sim.tick ctx 10 done in
  let diagnostic budget bodies =
    match Sim.run ~seed:10 ~watchdog:budget bodies with
    | () -> Alcotest.fail "watchdog never fired"
    | exception Sim.Watchdog msg -> msg
  in
  let fresh = diagnostic (-1) [| spin; spin |] in
  Alcotest.(check bool) "never-run thread" true (contains fresh "thread 1: not-started");
  let mixed = diagnostic 1_000 [| (fun _ -> ()); spin; spin |] in
  Alcotest.(check bool) "returned thread" true (contains mixed "thread 0: finished");
  Alcotest.(check bool) "parked thread" true (contains mixed "thread 1: ready")

let test_watchdog_silent_with_progress () =
  let worker ctx =
    while Sim.clock ctx < 50_000 do
      Sim.tick ctx 10;
      Sim.note_progress ctx
    done
  in
  Sim.run ~seed:11 ~watchdog:1_000 [| worker; worker |];
  Alcotest.(check pass) "completed without Watchdog" () ()

(* ------------------------------------------------------------------ *)
(* HTM under faults                                                    *)

let test_crash_safe_tle () =
  (* Thread 0 dies inside the TLE-locked fallback block; the shielded
     release must still free the global lock, or thread 1 spins forever. *)
  let mem = Simmem.create () in
  let htm = Htm.create ~config:{ Htm.default_config with tle = Htm.Tle_after 0 } mem in
  let boot = Sim.boot () in
  let word = Simmem.malloc mem boot 2 in
  let faults = Sim.Fault.make { Sim.Fault.none with kills_at = [ (0, 1_000) ] } in
  let survivor = ref false in
  let holder_survived = ref false in
  Sim.run ~seed:12 ~faults ~watchdog:500_000
    [|
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            for _ = 1 to 200 do
              Htm.write tx word (Htm.read tx word + 1)
            done);
        holder_survived := true);
      (fun ctx ->
        Sim.advance_to ctx 50_000;
        Htm.atomic htm ctx (fun tx -> Htm.write tx word 42);
        survivor := true);
    |];
  Alcotest.(check bool) "holder was killed mid-block" false !holder_survived;
  Alcotest.(check bool) "survivor acquired the lock and committed" true !survivor;
  Alcotest.(check int) "survivor's write visible" 42 (Simmem.read mem boot word);
  Alcotest.(check int) "holder did die" 1 (Sim.Fault.kills faults)

let test_spurious_aborts_escalate_to_lock () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:{ Htm.default_config with tle = Htm.Tle_after 2 } mem in
  let boot = Sim.boot () in
  let word = Simmem.malloc mem boot 2 in
  let faults = Sim.Fault.make { Sim.Fault.none with spurious_abort_rate = 1.0 } in
  Sim.run ~seed:13 ~faults ~watchdog:1_000_000
    [|
      (fun ctx ->
        for _ = 1 to 5 do
          Htm.atomic htm ctx (fun tx -> Htm.write tx word (Htm.read tx word + 1))
        done);
    |];
  let st = Htm.stats htm in
  Alcotest.(check int) "every op went through the lock" 5 st.lock_fallbacks;
  Alcotest.(check int) "no hardware commits at rate 1.0" 0 st.commits;
  Alcotest.(check int) "two spurious aborts per op" 10 st.aborts_spurious;
  Alcotest.(check int) "escalation chain recorded" 2 st.max_consecutive_aborts;
  Alcotest.(check int) "all ops applied" 5 (Simmem.read mem boot word);
  Alcotest.(check int) "plan log agrees" 10 (Sim.Fault.spurious_fired faults)

let test_retry_exhausted () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:{ Htm.default_config with max_attempts = 3 } mem in
  let boot = Sim.boot () in
  let word = Simmem.malloc mem boot 2 in
  let faults = Sim.Fault.make { Sim.Fault.none with spurious_abort_rate = 1.0 } in
  let raised = ref false in
  (match
     Sim.run ~seed:14 ~faults
       [| (fun ctx -> Htm.atomic htm ctx (fun tx -> Htm.write tx word 1)) |]
   with
  | () -> ()
  | exception Htm.Retry_exhausted Htm.Spurious -> raised := true);
  Alcotest.(check bool) "budget of 3 exhausted with the last reason" true !raised;
  Alcotest.(check int) "three attempts were made" 3 (Htm.stats htm).aborts_spurious

let test_commit_histogram_totals () =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let words = Array.init 2 (fun _ -> Simmem.malloc mem boot 2) in
  Sim.run ~seed:15
    (Array.init 2 (fun i ->
         fun ctx ->
           for _ = 1 to 50 do
             Htm.atomic htm ctx (fun tx ->
                 Htm.write tx words.(i) (Htm.read tx words.(i) + 1))
           done));
  let st = Htm.stats htm in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Htm.commit_cycles_histogram htm) in
  Alcotest.(check int) "histogram covers every completed atomic"
    (st.commits + st.lock_fallbacks) total;
  Alcotest.(check int) "100 atomics ran" 100 st.commits;
  Htm.reset_stats htm;
  Alcotest.(check (list (pair int int))) "reset clears the histogram" []
    (Htm.commit_cycles_histogram htm)

(* ------------------------------------------------------------------ *)
(* Survivability of the full algorithm suite                           *)

let test_collect_crash_survivability () =
  List.iter
    (fun (mk : Collect.Intf.maker) ->
      let r = Workload.Chaos_bench.collect_crash_one mk in
      Alcotest.(check int) (mk.algo_name ^ ": all scheduled kills fired") 3 r.cr_kills;
      Alcotest.(check bool) (mk.algo_name ^ ": survivors kept operating") true (r.cr_ops > 0);
      Alcotest.(check bool)
        (mk.algo_name ^ ": collects were spec-checked") true
        (r.cr_checked_collects > 0);
      let pinned = Workload.Chaos_bench.cr_crash_pinned r in
      match mk.algo_name with
      | "ListHoHRC" | "DynamicBaseline" ->
        Alcotest.(check bool)
          (mk.algo_name ^ ": crashed readers pin memory permanently") true (pinned > 0)
      | _ ->
        (* The HTM algorithms leave at most the dead threads' handle cells
           (<= 2 words each); no node is ever pinned by a crashed reader. *)
        Alcotest.(check bool)
          (mk.algo_name ^ ": residue bounded by the dead handles") true
          (pinned >= 0 && pinned <= 2 * r.cr_kills))
    Collect.all_with_extensions

let test_collect_crash_determinism () =
  let mk = Option.get (Collect.find_maker "ArrayDynAppendDereg") in
  let r1 = Workload.Chaos_bench.collect_crash_one mk in
  let r2 = Workload.Chaos_bench.collect_crash_one mk in
  Alcotest.(check string) "fault traces identical" r1.cr_fault_trace r2.cr_fault_trace;
  Alcotest.(check bool) "full results identical" true (r1 = r2)

let test_queue_crash_survivability () =
  List.iter
    (fun (mk : Hqueue.Intf.maker) ->
      let r = Workload.Chaos_bench.queue_crash_one mk in
      Alcotest.(check int) (mk.queue_name ^ ": kills fired") 2 r.qr_kills;
      Alcotest.(check bool)
        (mk.queue_name ^ ": losses bounded by crashed ops") true (r.qr_lost <= r.qr_kills);
      Alcotest.(check bool)
        (mk.queue_name ^ ": no duplicates/fabrications") true
        (r.qr_dequeued <= r.qr_enqueued))
    Hqueue.all_with_extensions

let test_spurious_survivability () =
  List.iter
    (fun name ->
      let mk = Option.get (Collect.find_maker name) in
      let r = Workload.Chaos_bench.spurious_one ~rate:0.3 mk in
      Alcotest.(check bool) (name ^ ": operated under 30% spurious aborts") true (r.sp_ops > 0);
      Alcotest.(check bool) (name ^ ": spurious aborts recorded") true (r.sp_spurious > 0);
      Alcotest.(check bool)
        (name ^ ": collects spec-checked") true (r.sp_checked_collects > 0))
    [ "ListHoHRC"; "ListFastCollect"; "ArrayDynAppendDereg" ];
  let base = Option.get (Collect.find_maker "StaticBaseline") in
  let r = Workload.Chaos_bench.spurious_one ~rate:0.3 base in
  Alcotest.(check int) "non-HTM baseline never aborts" 0 r.sp_spurious

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
          Alcotest.test_case "scheduled kill" `Quick test_scheduled_kill;
          Alcotest.test_case "random kill budget" `Quick test_random_kill_budget;
          Alcotest.test_case "stalls" `Quick test_stalls;
          Alcotest.test_case "shield suppresses faults" `Quick test_shield_suppresses_faults;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires with diagnostic" `Quick test_watchdog_fires;
          Alcotest.test_case "diagnostic state words" `Quick test_watchdog_state_words;
          Alcotest.test_case "silent with progress" `Quick test_watchdog_silent_with_progress;
        ] );
      ( "htm",
        [
          Alcotest.test_case "crash-safe TLE release" `Quick test_crash_safe_tle;
          Alcotest.test_case "spurious aborts escalate" `Quick test_spurious_aborts_escalate_to_lock;
          Alcotest.test_case "retry budget exhausted" `Quick test_retry_exhausted;
          Alcotest.test_case "commit histogram totals" `Quick test_commit_histogram_totals;
        ] );
      ( "survivability",
        [
          Alcotest.test_case "collect algorithms vs crashes" `Slow test_collect_crash_survivability;
          Alcotest.test_case "chaos run determinism" `Slow test_collect_crash_determinism;
          Alcotest.test_case "queues vs crashes" `Slow test_queue_crash_survivability;
          Alcotest.test_case "all live under spurious aborts" `Slow test_spurious_survivability;
        ] );
    ]
