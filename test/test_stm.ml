(* Tests for the TL2 software path and the HTM→STM escalation policy:
   serializability under both clock schemes, opacity, hybrid conflict
   detection, unbounded write sets without global-lock serialization,
   crash-safe versioned-lock recovery (stealing), per-path attempt
   attribution, backoff envelope properties, and sweep determinism. *)

let stm_forced = { Htm.default_config with stm = Htm.Stm_after 0 }

let make_stm ?(stm_config = Stm.default_config) () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:{ stm_forced with stm_config } mem in
  (mem, htm, Sim.boot ())

(* ------------------------------------------------------------------ *)
(* Serializability: contended counter on the pure software path.       *)

let counter_no_lost_updates scheme () =
  let mem, htm, _boot =
    make_stm ~stm_config:{ Stm.default_config with clock_scheme = scheme } ()
  in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let n = 400 and nt = 6 in
  Sim.run ~seed:3
    (Array.init nt (fun _ ->
         fun ctx ->
           for _ = 1 to n do
             Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1))
           done));
  Alcotest.(check int) "no lost updates" (n * nt) (Simmem.peek mem a);
  let st = Htm.stats htm in
  Alcotest.(check int) "no hardware commits" 0 st.commits;
  Alcotest.(check int) "no lock fallbacks" 0 st.lock_fallbacks;
  Alcotest.(check int) "every op committed in software" (n * nt) st.stm_commits;
  match Htm.stm htm with
  | None -> Alcotest.fail "stm side table missing"
  | Some s ->
    let ss = Stm.stats s in
    Alcotest.(check bool) "attempts cover commits" true (ss.attempts >= ss.commits);
    (match scheme with
     | Stm.Gv1 ->
       Alcotest.(check int) "GV1 never needs reader-side bumps" 0 ss.clock_bumps
     | Stm.Gv5 ->
       Alcotest.(check bool) "GV5 readers bumped the clock" true (ss.clock_bumps > 0))

(* ------------------------------------------------------------------ *)
(* Acceptance: transactions beyond the store buffer complete on the STM
   path with every thread progressing — no global-lock serialization.   *)

let test_big_tx_parallel_stm () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:Htm.hybrid_config mem in
  let boot = Sim.boot () in
  let nt = 4 and ops = 12 and span = 48 in
  (* disjoint regions: escalation is driven purely by capacity *)
  let regions = Array.init nt (fun _ -> Simmem.malloc mem boot span) in
  let done_ops = Array.make nt 0 in
  Sim.run ~seed:7
    (Array.init nt (fun i ->
         fun ctx ->
           for k = 1 to ops do
             Htm.atomic htm ctx (fun tx ->
                 for j = 0 to span - 1 do
                   Htm.write tx (regions.(i) + j) k
                 done);
             done_ops.(i) <- done_ops.(i) + 1
           done));
  Array.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "thread %d completed" i) ops d)
    done_ops;
  let st = Htm.stats htm in
  Alcotest.(check int) "no global-lock serialization" 0 st.lock_fallbacks;
  Alcotest.(check int) "48-store transactions committed in software" (nt * ops)
    st.stm_commits;
  Alcotest.(check int) "capacity escalated after one hw attempt each" (nt * ops)
    st.attempts_hw;
  Alcotest.(check int) "one escalation per op" (nt * ops) st.escalations_stm;
  Alcotest.(check int) "every hw attempt overflowed" (nt * ops) st.aborts_overflow;
  for i = 0 to nt - 1 do
    for j = 0 to span - 1 do
      if Simmem.peek mem (regions.(i) + j) <> ops then
        Alcotest.failf "region %d word %d: %d" i j (Simmem.peek mem (regions.(i) + j))
    done
  done

(* ------------------------------------------------------------------ *)
(* Opacity: a doomed software transaction never observes a snapshot
   violating the x + y = 0 invariant — against STM writers and against
   hardware-path writers (hybrid strong atomicity).                     *)

let invariant_pair writer_config () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:stm_forced mem in
  let whtm = Htm.create ~config:writer_config mem in
  let boot = Sim.boot () in
  let x = Simmem.malloc mem boot 1 and y = Simmem.malloc mem boot 1 in
  let violated = ref false in
  let writer ctx =
    for k = 1 to 150 do
      Htm.atomic whtm ctx (fun tx ->
          Htm.write tx x k;
          Htm.write tx y (-k))
    done
  in
  let reader ctx =
    for _ = 1 to 150 do
      let s =
        Htm.atomic htm ctx (fun tx ->
            let s = Htm.read tx x + Htm.read tx y in
            (* opacity: even an attempt doomed to abort must never have
               let us compute on a mixed snapshot *)
            if s <> 0 then violated := true;
            s)
      in
      if s <> 0 then violated := true
    done
  in
  Sim.run ~seed:11 [| writer; reader; reader |];
  Alcotest.(check bool) "x + y = 0 always" false !violated

(* Opacity of memory management (Machens & Turau): a transaction must
   never observe a freed block, nor the old and the new life of a
   reallocated one side by side. An allocator thread publishes one
   two-word block per generation [g] through a shared cell, initialized
   to [(g, g * k)] before it is reachable, and retires the previous
   generation's block with [defer_free] — so the next [malloc] hands
   that very block back, and a reader still holding its address reads a
   block that was freed and refilled under it. Two readers read the cell
   and both words of the block it names, pausing between the two words
   long enough for the allocator to retire and refill the block; even an
   attempt doomed to abort must see a matching pair. Every path gets the same check: hardware
   only, every attempt in software, the full hybrid lattice, and the
   TLE lock after one abort. *)
let reuse_configs =
  [
    ("hw", Htm.default_config);
    ("stm", stm_forced);
    ("hybrid", Htm.hybrid_config);
    ("tle", { Htm.default_config with tle = Htm.Tle_after 1 });
  ]

let freed_block_never_torn config (seed, k, pause) =
  let gens = 30 in
  let mem = Simmem.create () in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let cur = Simmem.malloc mem boot 1 in
  let torn = ref false and reused = ref false and seen = Hashtbl.create 8 in
  let allocator ctx =
    for g = 1 to gens do
      let b = Simmem.malloc mem ctx 2 in
      if Hashtbl.mem seen b then reused := true;
      Hashtbl.replace seen b ();
      Htm.atomic htm ctx (fun tx ->
          Htm.write tx b g;
          Htm.write tx (b + 1) (g * k);
          let old = Htm.read tx cur in
          Htm.write tx cur b;
          if old <> 0 then Htm.defer_free tx old)
    done
  in
  let reader ctx =
    for _ = 1 to gens do
      let x, y =
        Htm.atomic htm ctx (fun tx ->
            let b = Htm.read tx cur in
            if b = 0 then (0, 0)
            else begin
              let x = Htm.read tx b in
              Sim.tick ctx pause;
              let y = Htm.read tx (b + 1) in
              if y <> x * k then torn := true;
              (x, y)
            end)
      in
      if y <> x * k then torn := true
    done
  in
  Sim.run ~seed [| allocator; reader; reader |];
  !reused && not !torn

let prop_freed_block_never_torn (name, config) =
  QCheck.Test.make ~count:50
    ~name:(Printf.sprintf "reallocated block never read torn (%s)" name)
    QCheck.(triple (int_bound 10_000) (int_range 2 9) (int_range 0 3_000))
    (freed_block_never_torn config)

(* ------------------------------------------------------------------ *)
(* Crash-safe lock recovery: a thread killed between versioned-lock
   acquisition and write-back leaves locks that survivors steal; its
   write set is never half-applied.                                     *)

let test_crash_steal_recovers () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:stm_forced mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 2 in
  Simmem.write mem boot a 1;
  Simmem.write mem boot (a + 1) 1;
  let faults =
    Sim.Fault.make
      { Sim.Fault.none with kills_at_point = [ (0, "stm.commit", 0) ] }
  in
  let survivor_ops = ref 0 in
  let victim_survived = ref false in
  Sim.run ~seed:17 ~faults ~watchdog:2_000_000
    [|
      (fun ctx ->
        (* dies holding the stripes of both words, pre-write-back *)
        Htm.atomic htm ctx (fun tx ->
            Htm.write tx a 999;
            Htm.write tx (a + 1) 999);
        victim_survived := true);
      (fun ctx ->
        for _ = 1 to 20 do
          Htm.atomic htm ctx (fun tx ->
              let u = Htm.read tx a and v = Htm.read tx (a + 1) in
              if u <> v then Alcotest.failf "torn state observed: %d <> %d" u v;
              Htm.write tx a (u + 1);
              Htm.write tx (a + 1) (v + 1));
          incr survivor_ops
        done);
      (fun ctx ->
        for _ = 1 to 20 do
          Htm.atomic htm ctx (fun tx ->
              let u = Htm.read tx a and v = Htm.read tx (a + 1) in
              if u <> v then Alcotest.failf "torn state observed: %d <> %d" u v;
              Htm.write tx a (u + 1);
              Htm.write tx (a + 1) (v + 1));
          incr survivor_ops
        done);
    |];
  Alcotest.(check bool) "victim was killed mid-commit" false !victim_survived;
  Alcotest.(check int) "the kill fired" 1 (Sim.Fault.kills faults);
  Alcotest.(check int) "both survivors completed all ops" 40 !survivor_ops;
  Alcotest.(check int) "victim's write set never applied (pairs intact)"
    (Simmem.peek mem a)
    (Simmem.peek mem (a + 1));
  Alcotest.(check int) "40 increments landed" 41 (Simmem.peek mem a);
  let st = Htm.stats htm in
  Alcotest.(check bool) "locks were stolen from the corpse" true (st.stm_steals >= 1)

(* A steal from a live-but-slow owner must be harmless: the owner
   re-verifies ownership at its commit point and retries. *)
let test_live_owner_steal_harmless () =
  let mem = Simmem.create () in
  let config =
    { stm_forced with
      stm_config = { Stm.default_config with steal_timeout = 200 } }
  in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let n = 150 and nt = 4 in
  Sim.run ~seed:23 ~watchdog:5_000_000
    (Array.init nt (fun _ ->
         fun ctx ->
           for _ = 1 to n do
             Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1))
           done));
  Alcotest.(check int) "aggressive stealing loses no update" (n * nt)
    (Simmem.peek mem a)

(* ------------------------------------------------------------------ *)
(* Escalation attribution: per-path attempt counters are exact.         *)

let test_attribution_spurious () =
  let mem = Simmem.create () in
  (* GV1 gives exact attempt counts: under GV5 a commit stamps words at
     clock+1 without advancing the clock, so every subsequent op pays one
     reader-side bump-and-retry attempt. *)
  let config =
    { Htm.hybrid_config with
      stm_config = { Stm.default_config with clock_scheme = Stm.Gv1 } }
  in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let faults = Sim.Fault.make { Sim.Fault.none with spurious_abort_rate = 1.0 } in
  let escalations = ref 0 and stm_commits = ref 0 and hw_aborts = ref 0 in
  Simmem.attach mem
    [
      {
        accesses = false;
        journal = false;
        fold =
          (fun ~tid:_ ~clock:_ -> function
            | Simmem.Tx (Htm.Tx_escalate { esc_to = Htm.P_stm; _ }) -> incr escalations
            | Simmem.Tx (Htm.Tx_commit { tx_path = Htm.P_stm; _ }) -> incr stm_commits
            | Simmem.Tx (Htm.Tx_abort { ab_path = Htm.P_hw; _ }) -> incr hw_aborts
            | _ -> ());
      };
    ];
  let ops = 5 in
  Sim.run ~seed:29 ~faults
    [|
      (fun ctx ->
        for _ = 1 to ops do
          Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1))
        done);
    |];
  let st = Htm.stats htm in
  (* hybrid policy: 2 spuriously-doomed hardware attempts, then software *)
  Alcotest.(check int) "hw attempts: exactly 2 per op" (2 * ops) st.attempts_hw;
  Alcotest.(check int) "stm attempts: 1 per op" ops st.attempts_stm;
  Alcotest.(check int) "no hardware commits" 0 st.commits;
  Alcotest.(check int) "software commits carried every op" ops st.stm_commits;
  Alcotest.(check int) "escalations counted" ops st.escalations_stm;
  Alcotest.(check int) "no lock fallbacks" 0 st.lock_fallbacks;
  Alcotest.(check int) "sink saw the escalations" ops !escalations;
  Alcotest.(check int) "sink saw the stm commits" ops !stm_commits;
  Alcotest.(check int) "sink saw the hw aborts" (2 * ops) !hw_aborts;
  Alcotest.(check int) "all ops applied" ops (Simmem.peek mem a)

(* STM budget exhaustion with TLE enabled falls to the lock; with TLE
   disabled it raises Retry_exhausted. *)
let test_stm_budget_to_tle () =
  let mem = Simmem.create () in
  let config =
    { Htm.hybrid_config with
      stm_attempts = 2;
      stm_config =
        { Stm.default_config with
          (* live contenders are not steal candidates under the huge
             default timeout; shrink the budget path instead *)
          steal_timeout = 1_000_000 } }
  in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 64 in
  (* Force software-path aborts via capacity escalation plus contention:
     every thread writes the whole shared region. *)
  let nt = 4 and ops = 8 and span = 40 in
  Sim.run ~seed:31 ~watchdog:20_000_000
    (Array.init nt (fun _ ->
         fun ctx ->
           for k = 1 to ops do
             Htm.atomic htm ctx (fun tx ->
                 for j = 0 to span - 1 do
                   Htm.write tx (a + j) k
                 done)
           done));
  let st = Htm.stats htm in
  Alcotest.(check int) "every op completed somewhere"
    (nt * ops)
    (st.stm_commits + st.lock_fallbacks);
  Alcotest.(check bool) "contention pushed some ops through the lock" true
    (st.lock_fallbacks > 0)

(* ------------------------------------------------------------------ *)
(* The retry contract, pinned on the software path and across the
   hardware → software hop.                                             *)

(* With no lock to fall back to, a block that always aborts runs exactly
   [stm_attempts] software attempts, then raises the last reason. *)
let test_stm_budget_raises () =
  let mem = Simmem.create () in
  let config =
    { stm_forced with stm = Htm.Stm_after 0; stm_attempts = 2; tle = Htm.Tle_never }
  in
  let htm = Htm.create ~config mem in
  let runs = ref 0 and aborts = ref [] in
  let outcome = ref "returned" in
  Sim.run ~seed:5
    [|
      (fun ctx ->
        match
          Htm.atomic htm ctx
            ~on_abort:(fun r -> aborts := r :: !aborts)
            (fun tx ->
              incr runs;
              Htm.abort tx)
        with
        | () -> ()
        | exception Htm.Retry_exhausted r ->
          outcome := "Retry_exhausted " ^ Htm.abort_label r);
    |];
  Alcotest.(check string) "budget runs dry with the last reason"
    ("Retry_exhausted " ^ Htm.abort_label Htm.Explicit)
    !outcome;
  Alcotest.(check int) "block ran exactly twice" 2 !runs;
  let st = Htm.stats htm in
  Alcotest.(check int) "two software attempts" 2 st.attempts_stm;
  Alcotest.(check int) "no hardware attempt" 0 st.attempts_hw;
  Alcotest.(check int) "no lock fallback" 0 st.lock_fallbacks;
  Alcotest.(check int) "on_abort once per software abort" 2 (List.length !aborts)

(* [on_abort] fires once per aborted software attempt, with its reason. *)
let test_stm_on_abort_hook () =
  let _mem, htm, _boot = make_stm () in
  let seen = ref [] and runs = ref 0 in
  Sim.run ~seed:5
    [|
      (fun ctx ->
        Htm.atomic htm ctx
          ~on_abort:(fun r -> seen := r :: !seen)
          (fun tx ->
            incr runs;
            if !runs <= 3 then Htm.abort tx));
    |];
  Alcotest.(check int) "block ran four times" 4 !runs;
  Alcotest.(check (list string)) "hook per software abort"
    [ "explicit"; "explicit"; "explicit" ]
    (List.map Htm.abort_label !seen);
  let st = Htm.stats htm in
  Alcotest.(check int) "four software attempts" 4 st.attempts_stm;
  Alcotest.(check int) "one software commit" 1 st.stm_commits

(* Hardware attempts count 0, 1, ...; the escalated block counts its
   software attempts from 0 again, in the descriptor and in the events. *)
let test_attempt_numbers_restart () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:Htm.hybrid_config mem in
  let evs = ref [] in
  Simmem.attach mem
    [
      {
        accesses = false;
        journal = false;
        fold =
          (fun ~tid:_ ~clock:_ -> function
            | Simmem.Tx (Htm.Tx_abort { ab_path; ab_attempt; _ }) ->
              evs := (Htm.path_label ab_path, ab_attempt) :: !evs
            | Simmem.Tx (Htm.Tx_commit { tx_path; tx_attempt; _ }) ->
              evs := (Htm.path_label tx_path, tx_attempt) :: !evs
            | _ -> ());
      };
    ];
  let numbers = ref [] and runs = ref 0 in
  Sim.run ~seed:5
    [|
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            numbers := Htm.attempt_number tx :: !numbers;
            incr runs;
            if !runs <= 4 then Htm.abort tx));
    |];
  Alcotest.(check (list int)) "attempt numbers" [ 0; 1; 0; 1; 2 ] (List.rev !numbers);
  let hw = Htm.path_label Htm.P_hw and stm = Htm.path_label Htm.P_stm in
  Alcotest.(check (list (pair string int)))
    "events carry the per-path numbers"
    [ (hw, 0); (hw, 1); (stm, 0); (stm, 1); (stm, 2) ]
    (List.rev !evs)

(* A hardware Overflow escalates at once: the clock between its abort
   event and the escalation pays the hardware abort cost and nothing
   else — no backoff, since no hardware retry could fit the write set. *)
let test_overflow_escalates_without_backoff () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:Htm.hybrid_config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 40 in
  let abort_at = ref (-1) and escalate_at = ref (-1) in
  Simmem.attach mem
    [
      {
        accesses = false;
        journal = false;
        fold =
          (fun ~tid:_ ~clock -> function
            | Simmem.Tx (Htm.Tx_abort { ab_reason = Htm.Overflow; ab_path = Htm.P_hw; _ }) ->
              abort_at := clock
            | Simmem.Tx (Htm.Tx_escalate { esc_to = Htm.P_stm; _ }) -> escalate_at := clock
            | _ -> ());
      };
    ];
  Sim.run ~seed:5
    [|
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            for j = 0 to 39 do
              Htm.write tx (a + j) j
            done));
    |];
  Alcotest.(check bool) "overflow abort seen" true (!abort_at >= 0);
  Alcotest.(check bool) "escalation seen" true (!escalate_at >= 0);
  (* 100 cycles: the hardware abort cost *)
  Alcotest.(check int) "abort cost, no backoff" 100 (!escalate_at - !abort_at);
  Alcotest.(check int) "committed in software" 1 (Htm.stats htm).stm_commits

(* ------------------------------------------------------------------ *)
(* Backoff envelope: monotone until cap, then constant; delays land in
   [bound/2, bound) and are a pure function of the RNG stream.          *)

let prop_backoff_monotone =
  QCheck.Test.make ~name:"backoff bound monotone until cap" ~count:200
    QCheck.(triple (int_range 1 2000) (int_range 1 100_000) (int_range 0 40))
    (fun (base, cap, n) ->
      let b = Sim.Backoff.bound ~base ~cap n in
      let b' = Sim.Backoff.bound ~base ~cap (n + 1) in
      b <= b' || b = cap)

let prop_backoff_caps =
  QCheck.Test.make ~name:"backoff bound reaches and holds the cap" ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 1 100_000))
    (fun (base, cap) ->
      Sim.Backoff.bound ~base ~cap 60 = min cap (Sim.Backoff.bound ~base ~cap 60)
      && Sim.Backoff.bound ~base ~cap 60 = Sim.Backoff.bound ~base ~cap 61)

let prop_backoff_delay_in_envelope =
  QCheck.Test.make ~name:"backoff delay within [bound/2, bound)" ~count:200
    QCheck.(triple (int_range 1 2000) (int_range 2 100_000) (int_range 0 20))
    (fun (base, cap, n) ->
      let rng = Sim.Rng.create 42 in
      let hi = Sim.Backoff.bound ~base ~cap n in
      let d = Sim.Backoff.delay ~base ~cap rng n in
      d >= hi / 2 && d < max (hi / 2 + 1) hi)

let prop_backoff_stream_pure =
  QCheck.Test.make ~name:"backoff delay sequence is a pure function of the seed"
    ~count:100 QCheck.small_int (fun seed ->
      let seq s =
        let rng = Sim.Rng.create s in
        List.init 24 (fun n -> Sim.Backoff.delay ~base:60 ~cap:16384 rng n)
      in
      seq seed = seq seed)

(* ------------------------------------------------------------------ *)
(* Sweep determinism: a contended hybrid workload fingerprint must be
   byte-identical whatever [jobs] is — backoff, stealing and escalation
   included.                                                            *)

let hybrid_fingerprint seed () =
  let mem = Simmem.create () in
  let htm = Htm.create ~config:Htm.hybrid_config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 48 in
  Sim.run ~seed
    (Array.init 4 (fun _ ->
         fun ctx ->
           for k = 1 to 6 do
             Htm.atomic htm ctx (fun tx ->
                 for j = 0 to 39 do
                   Htm.write tx (a + j) (Htm.read tx (a + j) + k)
                 done)
           done));
  let st = Htm.stats htm in
  Printf.sprintf "w0=%d hw=%d stm=%d tle=%d esc=%d steals=%d" (Simmem.peek mem a)
    st.attempts_hw st.attempts_stm st.attempts_tle st.escalations_stm st.stm_steals

let test_sweep_jobs_identical () =
  let cells =
    List.map
      (fun seed -> Runner.Cell.v ~label:(Printf.sprintf "fp/%d" seed) (hybrid_fingerprint seed))
      [ 1; 2; 3; 4 ]
  in
  let fp jobs = Runner.Sweep.values (Runner.Sweep.run ~jobs cells) in
  Alcotest.(check (list string)) "fingerprints byte-identical across jobs" (fp 1) (fp 2)

(* ------------------------------------------------------------------ *)
(* Schedule exploration: the STM-forced scenarios hold up under
   adversarial strategies, faults included.                             *)

let explore_scenario key strategy ~faults () =
  match Explore.Scenario.build ~key ~threads:3 ~ops:5 () with
  | Error msg -> Alcotest.fail msg
  | Ok scn -> (
    match scn.scn_run ~strategy ~seed:5 ~faults ~record:None ~trace:None ~tracer:None with
    | Explore.Scenario.Pass -> ()
    | Explore.Scenario.Fail msg -> Alcotest.failf "%s under %s: %s" key "strategy" msg)

let stall_faults =
  Some { Sim.Fault.none with stall_rate = 0.001; stall_cycles = 2_000 }

let () =
  Alcotest.run "stm"
    [
      ( "serializability",
        [
          Alcotest.test_case "counter GV1" `Quick (counter_no_lost_updates Stm.Gv1);
          Alcotest.test_case "counter GV5" `Quick (counter_no_lost_updates Stm.Gv5);
        ] );
      ( "capacity",
        [ Alcotest.test_case "48-store txs, parallel, no lock" `Quick
            test_big_tx_parallel_stm ] );
      ( "opacity",
        [
          Alcotest.test_case "invariant pair vs STM writers" `Quick
            (invariant_pair stm_forced);
          Alcotest.test_case "invariant pair vs HW writers" `Quick
            (invariant_pair Htm.default_config);
        ]
        @ List.map
            (fun c -> QCheck_alcotest.to_alcotest (prop_freed_block_never_torn c))
            reuse_configs );
      ( "crash recovery",
        [
          Alcotest.test_case "kill at stm.commit; locks stolen" `Quick
            test_crash_steal_recovers;
          Alcotest.test_case "live-owner steal harmless" `Quick
            test_live_owner_steal_harmless;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "per-path attribution exact" `Quick
            test_attribution_spurious;
          Alcotest.test_case "stm budget falls to TLE" `Quick test_stm_budget_to_tle;
        ] );
      ( "retry contract",
        [
          Alcotest.test_case "stm budget raises without TLE" `Quick test_stm_budget_raises;
          Alcotest.test_case "on_abort per software abort" `Quick test_stm_on_abort_hook;
          Alcotest.test_case "software attempts restart at 0" `Quick
            test_attempt_numbers_restart;
          Alcotest.test_case "overflow escalates without backoff" `Quick
            test_overflow_escalates_without_backoff;
        ] );
      ( "backoff",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_backoff_monotone;
            prop_backoff_caps;
            prop_backoff_delay_in_envelope;
            prop_backoff_stream_pure;
          ] );
      ("determinism", [ Alcotest.test_case "sweep jobs" `Quick test_sweep_jobs_identical ]);
      ( "explore",
        [
          Alcotest.test_case "stm-queue random-walk" `Quick
            (explore_scenario "stm-queue" (Sim.Random_walk { rw_seed = 9 }) ~faults:None);
          Alcotest.test_case "stm-queue pct + stalls" `Quick
            (explore_scenario "stm-queue"
               (Sim.Pct { pct_seed = 9; pct_depth = 3; pct_length = 4000 })
               ~faults:stall_faults);
          Alcotest.test_case "stm-collect random-walk" `Quick
            (explore_scenario "stm-collect" (Sim.Random_walk { rw_seed = 13 })
               ~faults:None);
        ] );
    ]
