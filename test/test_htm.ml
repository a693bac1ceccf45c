(* Tests for the simulated HTM: serializability, opacity, sandboxing,
   store-buffer bounds, strong atomicity, TLE. *)

let make ?config () =
  let mem = Simmem.create () in
  let htm = Htm.create ?config mem in
  (mem, htm, Sim.boot ())

(* On both paths: a read sees the newest of the block's writes to its
   word, and the commit leaves the newest in memory. *)
let test_read_write_commit () =
  List.iter
    (fun config ->
      let mem, htm, boot = make ~config () in
      let a = Simmem.malloc mem boot 2 in
      let v =
        Htm.atomic htm boot (fun tx ->
            Htm.write tx a 4;
            Htm.write tx (a + 1) 6;
            Htm.write tx a 5;
            Htm.read tx a + Htm.read tx (a + 1))
      in
      Alcotest.(check int) "read own newest writes" 11 v;
      Alcotest.(check int) "committed" 5 (Simmem.read mem boot a))
    [ Htm.default_config; { Htm.default_config with stm = Htm.Stm_after 0 } ]

let test_abort_discards () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 1 in
  let attempts = ref 0 in
  let v =
    Htm.atomic htm boot (fun tx ->
        incr attempts;
        Htm.write tx a 99;
        if !attempts = 1 then Htm.abort tx else Htm.read tx a)
  in
  Alcotest.(check int) "explicit abort retries" 2 !attempts;
  Alcotest.(check int) "second attempt result" 99 v;
  Alcotest.(check int) "only final commit applied" 99 (Simmem.read mem boot a);
  Alcotest.(check int) "explicit abort counted" 1 (Htm.stats htm).aborts_explicit

let test_counter_serializable () =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let n = 2000 and nt = 8 in
  Sim.run ~seed:3
    (Array.init nt (fun _ ->
         fun ctx ->
           for _ = 1 to n do
             Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1))
           done));
  Alcotest.(check int) "no lost updates" (n * nt) (Simmem.peek mem a)

(* Transactions with a wide read-to-commit window must experience conflicts
   under contention (short ones serialize through the coherence queue). *)
let test_long_txs_conflict () =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let n = 200 and nt = 4 in
  Sim.run ~seed:3
    (Array.init nt (fun _ ->
         fun ctx ->
           for _ = 1 to n do
             Htm.atomic htm ctx (fun tx ->
                 let v = Htm.read tx a in
                 Sim.advance_to ctx (Sim.clock ctx + 300);
                 Htm.write tx a (v + 1))
           done));
  Alcotest.(check int) "still no lost updates" (n * nt) (Simmem.peek mem a);
  Alcotest.(check bool) "conflicts occurred" true ((Htm.stats htm).aborts_conflict > 0)

let test_overflow () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 40 in
  let aborted = ref 0 in
  (* 33 stores must overflow a 32-entry buffer; cap attempts via TLE. *)
  let config = { Htm.default_config with tle = Htm.Tle_after 2 } in
  let htm2 = Htm.create ~config (Htm.mem htm) in
  Htm.atomic htm2 boot (fun tx ->
      if not (Htm.in_fallback tx) then incr aborted;
      for i = 0 to 32 do
        Htm.write tx (a + i) i
      done);
  Alcotest.(check bool) "hw attempts overflowed" true ((Htm.stats htm2).aborts_overflow >= 1);
  Alcotest.(check int) "completed via lock" 32 (Simmem.read mem boot (a + 32))

let test_record_counts_against_buffer () =
  let mem, htm, boot = make () in
  ignore mem;
  let config = { Htm.default_config with tle = Htm.Tle_after 1 } in
  let htm2 = Htm.create ~config (Htm.mem htm) in
  Htm.atomic htm2 boot (fun tx ->
      if not (Htm.in_fallback tx) then
        for _ = 1 to 33 do
          Htm.record tx
        done);
  Alcotest.(check bool) "records overflow the store buffer" true
    ((Htm.stats htm2).aborts_overflow >= 1)

let test_exactly_32_ok () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 32 in
  Htm.atomic htm boot (fun tx ->
      for i = 0 to 31 do
        Htm.write tx (a + i) 1
      done);
  Alcotest.(check int) "32 stores fit" 0 (Htm.stats htm).aborts_overflow

let test_sandboxing () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 2 in
  let hit_freed = ref false in
  Sim.run ~seed:12
    [|
      (fun ctx ->
        (* Reads the block slowly; the concurrent free must abort us, not
           fault. *)
        let v =
          Htm.atomic htm ctx (fun tx ->
              let x = Htm.read tx a in
              Sim.advance_to ctx (Sim.clock ctx + 1000);
              (* If the block was freed meanwhile, this access aborts the
                 attempt (sandboxing) and we retry against the new block. *)
              if x = 0 then x + Htm.read tx (a + 1) else x)
        in
        ignore v;
        hit_freed := true);
      (fun ctx ->
        Sim.advance_to ctx 300;
        Simmem.free mem ctx a;
        (* Realloc so the retry finds live memory again. *)
        let b = Simmem.malloc mem ctx 2 in
        Simmem.write mem ctx b 7);
    |];
  Alcotest.(check bool) "transaction survived the free" true !hit_freed;
  let st = Htm.stats htm in
  Alcotest.(check bool) "aborted instead of faulting" true
    (st.aborts_illegal + st.aborts_conflict >= 1)

let test_no_sandboxing_faults () =
  let mem = Simmem.create () in
  let config = { Htm.default_config with sandboxed = false } in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  Simmem.free mem boot a;
  Alcotest.check_raises "unsandboxed tx segfaults"
    (Simmem.Fault (Simmem.Use_after_free a))
    (fun () -> Htm.atomic htm boot (fun tx -> ignore (Htm.read tx a)))

let test_strong_atomicity () =
  let mem, htm, boot = make () in
  ignore boot;
  let a = Simmem.malloc mem (Sim.boot ()) 1 in
  let conflicted = ref false in
  Sim.run ~seed:13
    [|
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            let v = Htm.read tx a in
            Sim.advance_to ctx (Sim.clock ctx + 2000);
            Htm.write tx a (v + 1)));
      (fun ctx ->
        Sim.advance_to ctx 500;
        (* naked store must doom the in-flight transaction *)
        Simmem.write mem ctx a 50);
    |];
  conflicted := (Htm.stats htm).aborts_conflict >= 1;
  Alcotest.(check bool) "naked store dooms transaction" true !conflicted;
  Alcotest.(check int) "final value reflects both" 51 (Simmem.peek mem a)

let test_opacity () =
  (* A doomed transaction must never observe an inconsistent pair. *)
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 8 in
  (* invariant: a.(0) = a.(1) *)
  let violations = ref 0 in
  Sim.run ~seed:14
    [|
      (fun ctx ->
        for _ = 1 to 300 do
          Htm.atomic htm ctx (fun tx ->
              let x = Htm.read tx a in
              let y = Htm.read tx (a + 1) in
              if x <> y then incr violations)
        done);
      (fun ctx ->
        for i = 1 to 300 do
          Htm.atomic htm ctx (fun tx ->
              Htm.write tx a i;
              Htm.write tx (a + 1) i)
        done);
    |];
  Alcotest.(check int) "no inconsistent snapshot ever observed" 0 !violations

(* A 40-read transaction parks after its 20th read while a second thread
   stores [n] to one word (chosen from the read block and an unrelated
   word by [target]). The read set's shortcut — skipping revalidation
   when nothing was stored — must neither hide a conflict on an early
   read nor invent one, on either path: [config] is the default
   (hardware) or [Stm_after 0] (every attempt in software). Returns the attempts, the committed sum, the
   aborts seen by a sink, the storing thread and the stored address. *)
let forty_reads_vs_store config target =
  let mem, htm, boot = make ~config () in
  let a = Simmem.malloc mem boot 40 in
  let unrelated = Simmem.malloc mem boot 8 in
  let stored = target a unrelated in
  let aborts = ref [] in
  (* the journal names each witness's aggressor *)
  Simmem.attach mem
    [
      {
        accesses = false;
        journal = true;
        fold =
          (fun ~tid:_ ~clock:_ -> function
            | Simmem.Tx (Htm.Tx_abort { ab_reason; ab_witness; _ }) ->
              aborts := (ab_reason, ab_witness) :: !aborts
            | _ -> ());
      };
    ];
  let attempts = ref 0 and sum = ref 0 and writer = ref (-1) in
  Sim.run ~seed:21
    [|
      (fun ctx ->
        sum :=
          Htm.atomic htm ctx (fun tx ->
              incr attempts;
              let s = ref 0 in
              for i = 0 to 39 do
                if i = 20 && Htm.attempt_number tx = 0 then Sim.advance_to ctx 50_000;
                s := !s + Htm.read tx (a + i)
              done;
              !s));
      (fun ctx ->
        writer := Sim.tid ctx;
        Sim.advance_to ctx 20_000;
        Simmem.write mem ctx stored 7);
    |];
  (!attempts, !sum, List.rev !aborts, !writer, stored)

let hw_path = (Htm.default_config, "htm.read")
let stm_path = ({ Htm.default_config with stm = Htm.Stm_after 0 }, "stm.read")

let test_long_read_set_conflict (config, site) () =
  let attempts, sum, aborts, writer, stored =
    forty_reads_vs_store config (fun a _ -> a + 2)
  in
  Alcotest.(check int) "aborted once, then committed" 2 attempts;
  Alcotest.(check int) "the retry saw the store" 7 sum;
  match aborts with
  | [ (Htm.Conflict, Some w) ] ->
    Alcotest.(check string) "caught at the next read" site w.Obs.Forensics.w_site;
    Alcotest.(check int) "witness on read #3" stored w.w_addr;
    Alcotest.(check int) "aggressor is the storing thread" writer w.w_aggressor
  | _ -> Alcotest.fail "expected exactly one conflict abort with a witness"

let test_long_read_set_unrelated (config, _) () =
  let attempts, sum, aborts, _, _ = forty_reads_vs_store config (fun _ u -> u) in
  Alcotest.(check int) "committed first time" 1 attempts;
  Alcotest.(check int) "read values" 0 sum;
  Alcotest.(check int) "no aborts" 0 (List.length aborts)

(* Re-reads. A transaction that loads a word twice counts it once: the
   commit event reports distinct reads, and the software commit charges
   its validation pass per distinct read, which the pinned clock shows. *)
let test_reread_commit ((config, _), clock_after) () =
  let mem, htm, boot = make ~config () in
  let a = Simmem.malloc mem boot 3 in
  let reads = ref [] in
  Simmem.attach mem
    [
      {
        accesses = false;
        journal = false;
        fold =
          (fun ~tid:_ ~clock:_ -> function
            | Simmem.Tx (Htm.Tx_commit { tx_reads; _ }) -> reads := tx_reads :: !reads
            | _ -> ());
      };
    ];
  let sum = ref 0 and clock = ref 0 in
  Sim.run ~seed:13
    [|
      (fun ctx ->
        sum :=
          Htm.atomic htm ctx (fun tx ->
              let s = Htm.read tx a + Htm.read tx (a + 1) + Htm.read tx a in
              Htm.write tx (a + 2) s;
              s);
        clock := Sim.clock ctx);
    |];
  Alcotest.(check int) "sum" 0 !sum;
  Alcotest.(check (list int)) "one commit, two distinct reads" [ 2 ] !reads;
  Alcotest.(check int) "clock after commit" clock_after !clock

(* A re-read of a word another thread stored to since the first read
   aborts at that read, and the witness names the word. *)
let test_reread_conflict (config, site) () =
  let mem, htm, boot = make ~config () in
  let a = Simmem.malloc mem boot 2 in
  let aborts = ref [] in
  Simmem.attach mem
    [
      {
        accesses = false;
        journal = true;
        fold =
          (fun ~tid:_ ~clock:_ -> function
            | Simmem.Tx (Htm.Tx_abort { ab_reason; ab_witness; _ }) ->
              aborts := (ab_reason, ab_witness) :: !aborts
            | _ -> ());
      };
    ];
  let attempts = ref 0 and sum = ref 0 and writer = ref (-1) in
  Sim.run ~seed:21
    [|
      (fun ctx ->
        sum :=
          Htm.atomic htm ctx (fun tx ->
              incr attempts;
              let first = Htm.read tx a + Htm.read tx (a + 1) in
              if Htm.attempt_number tx = 0 then Sim.advance_to ctx 50_000;
              first + Htm.read tx a));
      (fun ctx ->
        writer := Sim.tid ctx;
        Sim.advance_to ctx 20_000;
        Simmem.write mem ctx a 7);
    |];
  Alcotest.(check int) "aborted once, then committed" 2 !attempts;
  Alcotest.(check int) "the retry saw the store twice" 14 !sum;
  match !aborts with
  | [ (Htm.Conflict, Some w) ] ->
    Alcotest.(check string) "caught at the re-read" site w.Obs.Forensics.w_site;
    Alcotest.(check int) "witness on the re-read word" a w.w_addr;
    Alcotest.(check int) "aggressor is the storing thread" !writer w.w_aggressor
  | _ -> Alcotest.fail "expected exactly one conflict abort with a witness"

let test_defer_free () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 2 in
  let attempts = ref 0 in
  Htm.atomic htm boot (fun tx ->
      incr attempts;
      Htm.defer_free tx a;
      if !attempts = 1 then Htm.abort tx);
  Alcotest.(check bool) "freed exactly once, after commit" false (Simmem.is_allocated mem a)

let test_defer_free_not_on_abort () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 2 in
  let attempts = ref 0 in
  Htm.atomic htm boot (fun tx ->
      incr attempts;
      if !attempts = 1 then begin
        Htm.defer_free tx a;
        Htm.abort tx
      end);
  Alcotest.(check bool) "abort discards deferred free" true (Simmem.is_allocated mem a)

let test_tle_lock_held_aborts () =
  (* A hardware attempt that observes the lock held must abort with
     Lock_held, and commit only after the holder releases. *)
  let mem = Simmem.create () in
  let config = { Htm.default_config with tle = Htm.Tle_after 1 } in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  Sim.run ~seed:16
    [|
      (fun ctx ->
        (* force this thread into the lock path by aborting once, then
           holding the lock for a long virtual time via a slow block *)
        let attempts = ref 0 in
        Htm.atomic htm ctx (fun tx ->
            incr attempts;
            if not (Htm.in_fallback tx) then Htm.abort tx
            else begin
              Sim.advance_to ctx (Sim.clock ctx + 5_000);
              Htm.write tx a 1
            end));
      (fun ctx ->
        Sim.advance_to ctx 1_000;
        Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1)));
    |];
  Alcotest.(check int) "both effects applied in order" 2 (Simmem.peek mem a);
  Alcotest.(check bool) "lock-held aborts observed" true ((Htm.stats htm).aborts_lock > 0)

let test_abort_in_lock_mode_rejected () =
  let mem = Simmem.create () in
  let config = { Htm.default_config with tle = Htm.Tle_after 0 } in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  Alcotest.check_raises "explicit abort under the lock is a client bug"
    (Invalid_argument "Htm.abort: cannot abort under the TLE lock") (fun () ->
      Htm.atomic htm boot (fun tx -> Htm.abort tx))

let test_write_to_freed_aborts () =
  (* A write-only transaction whose target is freed concurrently must
     abort (sandboxed) rather than corrupt recycled memory. *)
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 2 in
  Sim.run ~seed:17
    [|
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            if Simmem.is_allocated mem a then begin
              Htm.write tx a 99;
              Sim.advance_to ctx (Sim.clock ctx + 2_000)
            end));
      (fun ctx ->
        Sim.advance_to ctx 500;
        (* the block stays freed: the pending store targets unmapped
           memory and the commit must abort, not corrupt it. (If it were
           recycled, the store would land — exactly as on real HTM, where
           write-only transactions see no conflict from malloc/free.) *)
        Simmem.free mem ctx a);
    |];
  let st = Htm.stats htm in
  Alcotest.(check bool) "aborted instead of writing freed memory" true
    (st.aborts_illegal + st.aborts_conflict >= 1)

let test_tle_serializes_with_hw () =
  (* Force one thread through the lock path; hardware transactions must
     still serialize with it. *)
  let mem = Simmem.create () in
  let config = { Htm.default_config with tle = Htm.Tle_after 3 } in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let n = 300 in
  Sim.run ~seed:15
    (Array.init 6 (fun _ ->
         fun ctx ->
           for _ = 1 to n do
             Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1))
           done));
  Alcotest.(check int) "no lost updates with TLE" (6 * n) (Simmem.peek mem a)

let test_stats_reset () =
  let mem, htm, boot = make () in
  let a = Simmem.malloc mem boot 1 in
  Htm.atomic htm boot (fun tx -> Htm.write tx a 1);
  Alcotest.(check bool) "commits counted" true ((Htm.stats htm).commits > 0);
  Htm.reset_stats htm;
  Alcotest.(check int) "reset" 0 (Htm.stats htm).commits

let test_on_abort_hook () =
  let mem, htm, boot = make () in
  ignore mem;
  let seen = ref [] in
  let attempts = ref 0 in
  Htm.atomic htm boot
    ~on_abort:(fun r -> seen := r :: !seen)
    (fun tx ->
      incr attempts;
      if !attempts <= 2 then Htm.abort tx);
  Alcotest.(check int) "hook per abort" 2 (List.length !seen);
  Alcotest.(check bool) "reasons recorded" true
    (List.for_all (fun r -> r = Htm.Explicit) !seen)

(* A parent registry lists metrics in first-registration order, so the
   order a hybrid domain registers its [stm.*] and [htm.*] metrics in is
   visible in every snapshot and [--metrics] dump. *)
let test_metric_registration_order () =
  let parent = Obs.Metrics.create () in
  let _htm = Htm.create ~config:Htm.hybrid_config ~metrics:parent (Simmem.create ()) in
  Alcotest.(check (list string))
    "registration order"
    [
      "stm.writes_per_tx"; "stm.commit_cycles"; "stm.clock_bumps"; "stm.steals";
      "stm.attempts"; "stm.aborts.explicit"; "stm.aborts.illegal"; "stm.aborts.locked";
      "stm.aborts.conflict"; "stm.commits"; "htm.stores_per_tx"; "htm.commit_cycles";
      "htm.max_consecutive_aborts"; "htm.escalations.stm"; "htm.attempts.tle";
      "htm.attempts.stm"; "htm.attempts.hw"; "htm.commit_cycles_total"; "htm.fallbacks";
      "htm.aborts.spurious"; "htm.aborts.lock_held"; "htm.aborts.explicit";
      "htm.aborts.illegal"; "htm.aborts.overflow"; "htm.aborts.conflict"; "htm.commits";
    ]
    (List.map fst (Obs.Metrics.snapshot parent))

let prop_concurrent_transfers_preserve_sum =
  (* Bank-transfer property: concurrent transactional transfers between
     accounts never create or destroy money. *)
  QCheck.Test.make ~name:"transfers preserve the total" ~count:30
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, nt) ->
      let mem = Simmem.create () in
      let htm = Htm.create mem in
      let boot = Sim.boot () in
      let n_accounts = 8 in
      let base = Simmem.malloc mem boot n_accounts in
      for i = 0 to n_accounts - 1 do
        Simmem.write mem boot (base + i) 100
      done;
      Sim.run ~seed
        (Array.init nt (fun _ ->
             fun ctx ->
               let rng = Sim.rng ctx in
               for _ = 1 to 100 do
                 let src = base + Sim.Rng.int rng n_accounts in
                 let dst = base + Sim.Rng.int rng n_accounts in
                 Htm.atomic htm ctx (fun tx ->
                     let s = Htm.read tx src in
                     if s > 0 then begin
                       Htm.write tx src (s - 1);
                       Htm.write tx dst (Htm.read tx dst + 1)
                     end)
               done));
      let total = ref 0 in
      for i = 0 to n_accounts - 1 do
        total := !total + Simmem.peek mem (base + i)
      done;
      !total = 100 * n_accounts)

let () =
  Alcotest.run "htm"
    [
      ( "basics",
        [
          Alcotest.test_case "read/write/commit" `Quick test_read_write_commit;
          Alcotest.test_case "abort discards writes" `Quick test_abort_discards;
          Alcotest.test_case "stats reset" `Quick test_stats_reset;
          Alcotest.test_case "on_abort hook" `Quick test_on_abort_hook;
          Alcotest.test_case "metric registration order" `Quick
            test_metric_registration_order;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "counter serializable" `Quick test_counter_serializable;
          Alcotest.test_case "long txs conflict" `Quick test_long_txs_conflict;
          Alcotest.test_case "strong atomicity" `Quick test_strong_atomicity;
          Alcotest.test_case "opacity" `Quick test_opacity;
          Alcotest.test_case "40 reads, store to read #3" `Quick
            (test_long_read_set_conflict hw_path);
          Alcotest.test_case "40 reads, unrelated store" `Quick
            (test_long_read_set_unrelated hw_path);
          Alcotest.test_case "40 reads, store to read #3, stm" `Quick
            (test_long_read_set_conflict stm_path);
          Alcotest.test_case "40 reads, unrelated store, stm" `Quick
            (test_long_read_set_unrelated stm_path);
        ] );
      ( "re-reads",
        [
          Alcotest.test_case "commit counts distinct reads" `Quick
            (test_reread_commit (hw_path, 144));
          Alcotest.test_case "commit counts distinct reads, stm" `Quick
            (test_reread_commit (stm_path, 417));
          Alcotest.test_case "re-read after a store aborts" `Quick
            (test_reread_conflict hw_path);
          Alcotest.test_case "re-read after a store aborts, stm" `Quick
            (test_reread_conflict stm_path);
        ] );
      ( "store buffer",
        [
          Alcotest.test_case "overflow at 33" `Quick test_overflow;
          Alcotest.test_case "records count" `Quick test_record_counts_against_buffer;
          Alcotest.test_case "32 stores fit" `Quick test_exactly_32_ok;
        ] );
      ( "sandboxing",
        [
          Alcotest.test_case "freed access aborts" `Quick test_sandboxing;
          Alcotest.test_case "unsandboxed faults" `Quick test_no_sandboxing_faults;
        ] );
      ( "memory",
        [
          Alcotest.test_case "defer_free on commit" `Quick test_defer_free;
          Alcotest.test_case "defer_free dropped on abort" `Quick test_defer_free_not_on_abort;
        ] );
      ( "tle",
        [
          Alcotest.test_case "lock serializes with hw" `Quick test_tle_serializes_with_hw;
          Alcotest.test_case "lock-held aborts" `Quick test_tle_lock_held_aborts;
          Alcotest.test_case "abort under lock rejected" `Quick test_abort_in_lock_mode_rejected;
          Alcotest.test_case "write to freed aborts" `Quick test_write_to_freed_aborts;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_concurrent_transfers_preserve_sum ]);
    ]
