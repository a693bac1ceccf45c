(* Property-based tests for the queues: equivalence with a functional
   model under random single-threaded scripts, and exactly-once delivery
   under randomized concurrent schedules.

   The concurrent properties run under three scheduling strategies: the
   default min-clock schedule and two adversarial ones (random walk, PCT)
   that decouple execution order from virtual time. The adversarial
   strategies get smaller qcheck counts to keep the suite's runtime in
   check; each trial seeds its strategy from the qcheck seed. *)

let strategies =
  [
    ("min-clock", 25, fun _seed -> Sim.Min_clock);
    ("random-walk", 10, fun seed -> Sim.Random_walk { rw_seed = seed });
    ( "pct",
      10,
      fun seed -> Sim.Pct { pct_seed = seed; pct_depth = 3; pct_length = 5000 } );
  ]

(* A script is a list of operations: true = enqueue (next value),
   false = dequeue. *)
let run_script (mk : Hqueue.Intf.maker) script =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let q = mk.make htm boot ~num_threads:2 in
  let results = ref [] in
  Sim.run ~seed:1
    [|
      (fun ctx ->
        let next = ref 0 in
        List.iter
          (fun enq ->
            if enq then begin
              incr next;
              q.enqueue ctx !next
            end
            else results := q.dequeue ctx :: !results)
          script);
    |];
  let r = List.rev !results in
  q.destroy boot;
  r

let model_script script =
  let q = Queue.create () in
  let next = ref 0 in
  let results = ref [] in
  List.iter
    (fun enq ->
      if enq then begin
        incr next;
        Queue.add !next q
      end
      else results := (if Queue.is_empty q then None else Some (Queue.pop q)) :: !results)
    script;
  List.rev !results

let prop_sequential_model (mk : Hqueue.Intf.maker) =
  QCheck.Test.make
    ~name:(mk.queue_name ^ " matches the functional queue model")
    ~count:100
    QCheck.(list bool)
    (fun script -> run_script mk script = model_script script)

let prop_concurrent_exactly_once (mk : Hqueue.Intf.maker) (sname, count, strat) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s delivers exactly once (%s)" mk.queue_name sname)
    ~count QCheck.small_int
    (fun seed ->
      let mem = Simmem.create () in
      let htm = Htm.create mem in
      let boot = Sim.boot () in
      let q = mk.make htm boot ~num_threads:6 in
      let got = ref [] in
      Sim.run ~seed ~strategy:(strat seed)
        (Array.init 6 (fun i ->
             fun ctx ->
               let rng = Sim.rng ctx in
               for k = 1 to 60 do
                 if Sim.Rng.bool rng then q.enqueue ctx ((i * 1000) + k)
                 else
                   match q.dequeue ctx with
                   | Some v -> got := v :: !got
                   | None -> ()
               done));
      let rec drain acc = match q.dequeue boot with Some v -> drain (v :: acc) | None -> acc in
      let all = drain [] @ !got in
      let ok = List.length all = List.length (List.sort_uniq compare all) in
      q.destroy boot;
      ok)

(* Sequential consistency of the value payload: dequeue order of one
   producer's values is its enqueue order, for every queue and seed. *)
let prop_per_producer_fifo (mk : Hqueue.Intf.maker) (sname, count, strat) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s preserves per-producer order (%s)" mk.queue_name sname)
    ~count QCheck.small_int
    (fun seed ->
      let mem = Simmem.create () in
      let htm = Htm.create mem in
      let boot = Sim.boot () in
      let q = mk.make htm boot ~num_threads:4 in
      let seen = Array.make 4 [] in
      Sim.run ~seed ~strategy:(strat seed)
        (Array.init 4 (fun i ->
             fun ctx ->
               if i < 2 then
                 for k = 1 to 80 do
                   q.enqueue ctx ((i * 1000) + k)
                 done
               else
                 for _ = 1 to 90 do
                   match q.dequeue ctx with
                   | Some v -> seen.(i) <- v :: seen.(i)
                   | None -> Sim.tick ctx 100
                 done));
      q.destroy boot;
      Array.for_all
        (fun lst ->
          let in_order = List.rev lst in
          let last = Hashtbl.create 4 in
          List.for_all
            (fun v ->
              let p = v / 1000 and k = v mod 1000 in
              let ok = match Hashtbl.find_opt last p with Some prev -> prev < k | None -> true in
              Hashtbl.replace last p k;
              ok)
            in_order)
        seen)

let () =
  Alcotest.run "queue-prop"
    [
      ( "properties",
        List.concat_map
          (fun mk ->
            List.map QCheck_alcotest.to_alcotest
              (prop_sequential_model mk
               :: List.concat_map
                    (fun s ->
                      [ prop_concurrent_exactly_once mk s; prop_per_producer_fifo mk s ])
                    strategies))
          (Hqueue.all_with_extensions @ [ Hqueue.ebr ]) );
    ]
