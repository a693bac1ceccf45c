(* Tests for the virtual-time cooperative scheduler. *)

let test_all_threads_finish () =
  let done_ = Array.make 8 false in
  Sim.run ~seed:1
    (Array.init 8 (fun i ->
         fun ctx ->
           Sim.tick ctx (10 * (i + 1));
           done_.(i) <- true));
  Array.iteri (fun i d -> Alcotest.(check bool) (Printf.sprintf "thread %d" i) true d) done_

let test_tids_and_clocks () =
  let tids = Array.make 4 (-1) in
  let clocks = Array.make 4 (-1) in
  Sim.run ~seed:2
    (Array.init 4 (fun i ->
         fun ctx ->
           tids.(i) <- Sim.tid ctx;
           Sim.tick ctx 100;
           clocks.(i) <- Sim.clock ctx));
  Array.iteri (fun i t -> Alcotest.(check int) "tid" i t) tids;
  Array.iter (fun c -> Alcotest.(check int) "clock advanced" 100 c) clocks

(* Events must execute in virtual-time order: with each access a yield
   point, a thread that ticks large costs cannot overtake one that ticks
   small costs. *)
let test_timestamp_order () =
  let log = ref [] in
  let worker cost ctx =
    for _ = 1 to 50 do
      Sim.tick ctx cost;
      log := (Sim.clock ctx, Sim.tid ctx) :: !log
    done
  in
  Sim.run ~seed:3 [| worker 3; worker 7; worker 11 |];
  let times = List.rev_map fst !log in
  let sorted = List.sort compare times in
  Alcotest.(check (list int)) "events logged in timestamp order" sorted times

let test_determinism () =
  let trace seed =
    let log = Buffer.create 256 in
    let worker ctx =
      for _ = 1 to 30 do
        Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 10);
        Buffer.add_string log (Printf.sprintf "%d@%d;" (Sim.tid ctx) (Sim.clock ctx))
      done
    in
    Sim.run ~seed (Array.make 5 worker);
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same trace" (trace 42) (trace 42);
  Alcotest.(check bool) "different seed, different trace" true (trace 42 <> trace 43)

let test_advance_to () =
  let c = ref 0 in
  Sim.run ~seed:4
    [|
      (fun ctx ->
        Sim.advance_to ctx 5000;
        c := Sim.clock ctx;
        Sim.advance_to ctx 100 (* no-op going backwards *));
    |];
  Alcotest.(check int) "advanced" 5000 !c

let test_stop_thread () =
  let after = ref false in
  let other = ref false in
  Sim.run ~seed:5
    [|
      (fun ctx ->
        Sim.tick ctx 1;
        ignore (Sim.stop ());
        after := true);
      (fun ctx ->
        Sim.tick ctx 1000;
        other := true);
    |];
  Alcotest.(check bool) "code after stop not run" false !after;
  Alcotest.(check bool) "other thread unaffected" true !other

let test_exception_propagates () =
  Alcotest.check_raises "thread exception reaches run" (Failure "boom") (fun () ->
      Sim.run ~seed:6 [| (fun ctx -> Sim.tick ctx 1; failwith "boom") |])

let test_boot_ctx () =
  let ctx = Sim.boot () in
  Alcotest.(check int) "boot tid" Sim.boot_tid (Sim.tid ctx);
  Sim.tick ctx 500;
  Alcotest.(check int) "boot clock advances" 500 (Sim.clock ctx)

let test_thread_count_limits () =
  Alcotest.check_raises "zero threads" (Invalid_argument "Sim.run: need between 1 and 256 threads")
    (fun () -> Sim.run [||]);
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Sim.run: need between 1 and 256 threads") (fun () ->
      Sim.run (Array.make 257 (fun _ -> ())));
  (* Exploring-mode features still encode runnable sets in one word. *)
  Alcotest.check_raises "recording caps at 61"
    (Invalid_argument "Sim.run: exploring strategies and recording support at most 61 threads")
    (fun () -> Sim.run ~record:(Sim.recorder ()) (Array.make 62 (fun _ -> ())))

let test_charge_no_yield () =
  (* charge advances the clock without a scheduling point: another thread
     cannot observe intermediate state even if its clock is earlier. *)
  let flag = ref 0 in
  let observed = ref (-1) in
  Sim.run ~seed:7
    [|
      (fun ctx ->
        Sim.tick ctx 100;
        flag := 1;
        Sim.charge ctx 1000;
        flag := 2;
        Sim.tick ctx 0);
      (fun ctx ->
        Sim.advance_to ctx 500;
        observed := !flag);
    |];
  Alcotest.(check bool) "atomic section not split" true (!observed = 0 || !observed = 2)

(* Backoff as the retry loops use it: attempt [n] ticks one
   [Backoff.delay] off the thread's clock. *)
let backoff_wait ctx ~base ~cap n =
  let t0 = Sim.clock ctx in
  Sim.tick ctx (Sim.Backoff.delay ~base ~cap (Sim.rng ctx) n);
  Sim.clock ctx - t0

let test_backoff_grows_and_resets () =
  Sim.run ~seed:8
    [|
      (fun ctx ->
        let wait = backoff_wait ctx ~base:10 ~cap:100 in
        let d1 = wait 0 in
        Alcotest.(check bool) "first delay within base" true (d1 >= 5 && d1 <= 10);
        for n = 1 to 10 do
          ignore (wait n)
        done;
        let dcap = wait 11 in
        Alcotest.(check bool) "capped" true (dcap <= 100);
        Alcotest.(check bool) "grown to the cap" true (dcap >= 50);
        let d2 = wait 0 in
        Alcotest.(check bool) "attempt 0 restores base" true (d2 >= 5 && d2 <= 10));
    |]

(* Fairness: threads doing equal work end with similar clocks and none is
   starved. *)
let test_fairness () =
  let finish = Array.make 6 0 in
  Sim.run ~seed:9
    (Array.init 6 (fun i ->
         fun ctx ->
           for _ = 1 to 1000 do
             Sim.tick ctx 5
           done;
           finish.(i) <- Sim.clock ctx));
  Array.iter (fun c -> Alcotest.(check int) "equal work, equal clock" 5000 c) finish

let prop_deterministic_final_clocks =
  QCheck.Test.make ~name:"run is deterministic for any seed" ~count:50 QCheck.small_int
    (fun seed ->
      let final () =
        let acc = Array.make 3 0 in
        Sim.run ~seed
          (Array.init 3 (fun i ->
               fun ctx ->
                 for _ = 1 to 20 do
                   Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 5)
                 done;
                 acc.(i) <- Sim.clock ctx));
        Array.to_list acc
      in
      final () = final ())

(* The min-clock pick against a naive oracle: a list scan over the
   runnable entries with the reservoir tie-break, in ascending index
   order, that the scheduler has always made. Clocks come from a tiny
   range so ties are dense, with [max_int] holes for threads that cannot
   run and a few clocks just below [max_int], next to the scheduler's
   parked sentinel. The pick, the second minimum and the RNG state afterwards (the
   next [Rng.bits]) must all agree. *)
let oracle_pick rng clocks =
  let runnable =
    List.filter (fun (_, c) -> c <> max_int)
      (List.mapi (fun i c -> (i, c)) (Array.to_list clocks))
  in
  let pick, _, _ =
    List.fold_left
      (fun (best, best_clock, ties) (i, c) ->
        if c < best_clock then (i, c, 1)
        else if c = best_clock then
          let ties = ties + 1 in
          ((if Sim.Rng.int rng ties = 0 then i else best), best_clock, ties)
        else (best, best_clock, ties))
      (-1, max_int, 0) runnable
  in
  let second =
    match List.sort Int.compare (List.map snd runnable) with _ :: c :: _ -> c | _ -> max_int
  in
  (pick, second)

let clock_array_gen =
  QCheck.Gen.(
    int_range 1 256 >>= fun width ->
    int_range 0 3 >>= fun range ->
    int_range 0 4 >>= fun holes ->
    array_size (return width)
      (frequency
         [ (holes, return max_int); (4, int_range 0 range);
           (1, int_range (max_int - 3) (max_int - 1)) ]))

let prop_pick_matches_oracle =
  QCheck.Test.make ~name:"pick: flat scan = list-scan reservoir oracle" ~count:2000
    QCheck.(
      pair
        (make clock_array_gen
           ~print:Print.(array (fun c -> if c = max_int then "-" else int c)))
        int)
    (fun (clocks, seed) ->
      let r = Sim.Rng.create seed and r' = Sim.Rng.create seed in
      Sim.pick_min r clocks = oracle_pick r' clocks && Sim.Rng.bits r = Sim.Rng.bits r')

(* A tie with the running minimum draws even when a later entry
   undercuts it: [|5;5;3|] draws once at index 1 and still picks index 2.
   An exact pick cannot look only at the ties of the final minimum. *)
let test_pick_prefix_tie () =
  let r = Sim.Rng.create 7 and r' = Sim.Rng.create 7 in
  Alcotest.(check (pair int int)) "pick and second" (2, 5) (Sim.pick_min r [| 5; 5; 3 |]);
  ignore (Sim.Rng.bits r');
  Alcotest.(check int) "exactly one draw" (Sim.Rng.bits r') (Sim.Rng.bits r)

(* Backoff obeys its contract for arbitrary base/cap: the delay of
   attempt [n] lands in [bound/2, bound], where the bound doubles per
   attempt up to cap (the doubling saturates after 9 attempts), and
   attempt 0 again restores the initial bound. *)
let prop_backoff_bounds =
  QCheck.Test.make ~name:"backoff: delays track the doubling bound up to cap" ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (b0, c0, s) ->
      let base = 1 + (abs b0 mod 200) in
      let cap = base + (abs c0 mod 5_000) in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      Sim.run ~seed:s
        [|
          (fun ctx ->
            let wait = backoff_wait ctx ~base ~cap in
            let bound = ref base in
            for n = 0 to 13 do
              let d = wait n in
              expect (d >= !bound / 2);
              expect (d <= !bound);
              expect (d <= cap);
              if n < 9 then bound := min cap (!bound * 2)
            done;
            let d = wait 0 in
            expect (d >= base / 2 && d <= base));
        |];
      !ok)

let () =
  Alcotest.run "sim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "all threads finish" `Quick test_all_threads_finish;
          Alcotest.test_case "tids and clocks" `Quick test_tids_and_clocks;
          Alcotest.test_case "timestamp order" `Quick test_timestamp_order;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "advance_to" `Quick test_advance_to;
          Alcotest.test_case "stop thread" `Quick test_stop_thread;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "boot context" `Quick test_boot_ctx;
          Alcotest.test_case "thread count limits" `Quick test_thread_count_limits;
          Alcotest.test_case "charge is atomic" `Quick test_charge_no_yield;
          Alcotest.test_case "fairness" `Quick test_fairness;
          Alcotest.test_case "pick draws on a prefix tie" `Quick test_pick_prefix_tie;
        ] );
      ("backoff", [ Alcotest.test_case "grow and reset" `Quick test_backoff_grows_and_resets ]);
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_deterministic_final_clocks;
          QCheck_alcotest.to_alcotest prop_backoff_bounds;
          QCheck_alcotest.to_alcotest prop_pick_matches_oracle;
        ] );
    ]
