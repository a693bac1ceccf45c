(* Tests for the concurrent FIFO queues: sequential semantics,
   concurrent safety (exactly-once delivery, per-producer order), and the
   reclamation properties the paper contrasts. *)

let make_q ?(num_threads = 8) (mk : Hqueue.Intf.maker) =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  (mem, boot, mk.make htm boot ~num_threads)

let forall f () = List.iter (fun mk -> f mk) (Hqueue.all_with_extensions @ [ Hqueue.ebr ])

let name_of (mk : Hqueue.Intf.maker) = mk.queue_name

let test_sequential_fifo mk =
  let _, _, q = make_q mk in
  Sim.run ~seed:1
    [|
      (fun ctx ->
        Alcotest.(check (option int)) (name_of mk ^ ": empty") None (q.dequeue ctx);
        for i = 1 to 50 do
          q.enqueue ctx i
        done;
        for i = 1 to 50 do
          Alcotest.(check (option int))
            (Printf.sprintf "%s: fifo %d" (name_of mk) i)
            (Some i) (q.dequeue ctx)
        done;
        Alcotest.(check (option int)) (name_of mk ^ ": drained") None (q.dequeue ctx));
    |]

let test_interleaved_sequential mk =
  let _, _, q = make_q mk in
  Sim.run ~seed:2
    [|
      (fun ctx ->
        q.enqueue ctx 1;
        q.enqueue ctx 2;
        Alcotest.(check (option int)) "deq 1" (Some 1) (q.dequeue ctx);
        q.enqueue ctx 3;
        Alcotest.(check (option int)) "deq 2" (Some 2) (q.dequeue ctx);
        Alcotest.(check (option int)) "deq 3" (Some 3) (q.dequeue ctx);
        Alcotest.(check (option int)) "empty again" None (q.dequeue ctx));
    |]

(* Concurrent producers/consumers: every enqueued value is dequeued exactly
   once (after draining), and values from one producer are consumed in
   production order. *)
let test_concurrent_exactly_once mk =
  let _, boot, q = make_q mk in
  let producers = 4 and consumers = 4 and per_producer = 150 in
  let consumed = Array.make (producers + consumers) [] in
  let bodies =
    Array.init (producers + consumers) (fun i ->
        fun ctx ->
          if i < producers then
            for k = 1 to per_producer do
              q.enqueue ctx ((i * 1_000_000) + k)
            done
          else
            let rec go got =
              if got < per_producer then
                match q.dequeue ctx with
                | Some v ->
                  consumed.(i) <- v :: consumed.(i);
                  go (got + 1)
                | None ->
                  Sim.tick ctx 50;
                  go got
            in
            go 0)
  in
  Sim.run ~seed:3 bodies;
  let rec drain acc = match q.dequeue boot with Some v -> drain (v :: acc) | None -> acc in
  let leftover = drain [] in
  let consumed_all = List.concat (Array.to_list consumed) @ leftover in
  Alcotest.(check int)
    (name_of mk ^ ": count")
    (producers * per_producer)
    (List.length consumed_all);
  let sorted = List.sort_uniq compare consumed_all in
  Alcotest.(check int) (name_of mk ^ ": exactly once") (producers * per_producer)
    (List.length sorted);
  (* per-producer order: for each consumer, the subsequence from any single
     producer must be increasing. *)
  Array.iteri
    (fun ci lst ->
      let in_order = List.rev lst in
      let last = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let p = v / 1_000_000 in
          let k = v mod 1_000_000 in
          (match Hashtbl.find_opt last p with
           | Some prev when prev >= k ->
             Alcotest.failf "%s: consumer %d saw producer %d out of order (%d then %d)"
               (name_of mk) ci p prev k
           | _ -> ());
          Hashtbl.replace last p k)
        in_order)
    consumed

let test_reclamation mk =
  (* Fill deep, drain, and measure what stays allocated. Reclaiming queues
     return to (near) empty; the pooled Michael-Scott retains its
     historical maximum. *)
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let pre_create = (Simmem.stats mem).live_words in
  let q = mk.Hqueue.Intf.make htm boot ~num_threads:2 in
  let before = (Simmem.stats mem).live_words in
  Sim.run ~seed:4
    [|
      (fun ctx ->
        for i = 1 to 500 do
          q.enqueue ctx i
        done;
        let rec drain () = match q.dequeue ctx with Some _ -> drain () | None -> () in
        drain ());
    |];
  let after = (Simmem.stats mem).live_words - before in
  if mk.reclaims then
    Alcotest.(check bool)
      (Printf.sprintf "%s: quiescent footprint small (%d words)" (name_of mk) after)
      true (after < 200)
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s: pools retain historical max (%d words)" (name_of mk) after)
      true (after >= 500 * 2);
  q.destroy boot;
  Alcotest.(check int) (name_of mk ^ ": destroy frees everything") pre_create
    (Simmem.stats mem).live_words

let test_recycling_stress mk =
  (* Tight enqueue/dequeue cycles maximise node recycling: the window where
     ABA and use-after-free bugs bite. The checker is exactly-once
     delivery. *)
  let _, boot, q = make_q mk in
  let n = 400 in
  let seen = ref [] in
  let bodies =
    Array.init 8 (fun i ->
        fun ctx ->
          for k = 1 to n do
            if (i + k) mod 2 = 0 then q.enqueue ctx ((i * 1_000_000) + k)
            else
              match q.dequeue ctx with
              | Some v -> seen := v :: !seen
              | None -> ()
          done)
  in
  Sim.run ~seed:5 bodies;
  let rec drain acc = match q.dequeue boot with Some v -> drain (v :: acc) | None -> acc in
  let all = drain [] @ !seen in
  Alcotest.(check int)
    (name_of mk ^ ": nothing duplicated or lost")
    (List.length all)
    (List.length (List.sort_uniq compare all))

let test_htm_queue_frees_immediately () =
  match Hqueue.find_maker "HTM" with
  | None -> Alcotest.fail "maker missing"
  | Some mk ->
    let mem, _, q = make_q mk in
    let base = (Simmem.stats mem).live_words in
    Sim.run ~seed:6
      [|
        (fun ctx ->
          q.enqueue ctx 1;
          q.enqueue ctx 2;
          let w2 = (Simmem.stats mem).live_words in
          Alcotest.(check int) "two entries allocated" (base + 4) w2;
          ignore (q.dequeue ctx);
          Alcotest.(check int) "entry freed on dequeue" (base + 2)
            (Simmem.stats mem).live_words);
      |]

let test_collect_queue_adaptive_announcements () =
  (* The point of reclaiming through Dynamic Collect (§1.2): announcement
     space tracks actual users, not the declared maximum thread count.
     Declare 32 threads, use 2, and compare footprints after create+use. *)
  let footprint name =
    let mem = Simmem.create () in
    let htm = Htm.create mem in
    let boot = Sim.boot () in
    let mk = Option.get (Hqueue.find_maker name) in
    let before = (Simmem.stats mem).live_words in
    let q = mk.make htm boot ~num_threads:32 in
    Sim.run ~seed:8
      [|
        (fun ctx ->
          for i = 1 to 50 do
            q.enqueue ctx i
          done);
        (fun ctx ->
          for _ = 1 to 50 do
            ignore (q.dequeue ctx)
          done);
      |];
    let rec drain () = match q.dequeue boot with Some _ -> drain () | None -> () in
    drain ();
    (* subtract the entries still parked in retired lists by freeing them *)
    let words = (Simmem.stats mem).live_words - before in
    q.destroy boot;
    words
  in
  let rop = footprint "MichaelScott+ROP" in
  let col = footprint "MichaelScott+Collect" in
  (* ROP's hazard array alone is 2*(32+1) = 66 words; the collect object
     only ever holds slots for the three threads that actually ran. *)
  Alcotest.(check bool)
    (Printf.sprintf "announcement space adapts (collect %d < rop %d words)" col rop)
    true (col < rop)

let test_rop_scan_frees () =
  match Hqueue.find_maker "MichaelScott+ROP" with
  | None -> Alcotest.fail "maker missing"
  | Some mk ->
    let mem, _, q = make_q ~num_threads:2 mk in
    let frees_before = (Simmem.stats mem).total_frees in
    Sim.run ~seed:7
      [|
        (fun ctx ->
          (* enough churn to trigger several scans *)
          for i = 1 to 200 do
            q.enqueue ctx i;
            ignore (q.dequeue ctx)
          done);
      |];
    Alcotest.(check bool) "scans actually freed memory" true
      ((Simmem.stats mem).total_frees > frees_before + 50)

let () =
  Alcotest.run "queue"
    [
      ( "sequential",
        [
          Alcotest.test_case "fifo order" `Quick (forall test_sequential_fifo);
          Alcotest.test_case "interleaved" `Quick (forall test_interleaved_sequential);
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "exactly once + per-producer order" `Quick
            (forall test_concurrent_exactly_once);
          Alcotest.test_case "recycling stress" `Quick (forall test_recycling_stress);
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "quiescent footprint" `Quick (forall test_reclamation);
          Alcotest.test_case "htm frees immediately" `Quick test_htm_queue_frees_immediately;
          Alcotest.test_case "rop scans free" `Quick test_rop_scan_frees;
          Alcotest.test_case "collect queue adapts announcements" `Quick
            test_collect_queue_adaptive_announcements;
        ] );
    ]
