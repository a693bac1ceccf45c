(* The linearizability checker itself: hand-built histories with known
   verdicts, then cross-checking every queue implementation against it
   under adversarial scheduling strategies. *)

module Lin = Explore.Lin
module Scenario = Explore.Scenario

let history ops =
  let h = Lin.create () in
  List.iter (fun (tid, inv, res, kind) -> Lin.add h ~tid ~inv ~res kind) ops;
  h

let accepts name ops () =
  match Lin.check (history ops) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s rejected:\n%s" name msg

let rejects name ops () =
  match Lin.check (history ops) with
  | Ok () -> Alcotest.failf "%s accepted a non-linearizable history" name
  | Error _ -> ()

let accept_cases =
  [
    ( "sequential",
      [
        (0, 1, 2, Lin.Enq 1);
        (0, 3, 4, Lin.Enq 2);
        (0, 5, 6, Lin.Deq (Some 1));
        (0, 7, 8, Lin.Deq (Some 2));
      ] );
    ( "dequeue inside the enqueue's interval",
      [ (0, 1, 4, Lin.Enq 1); (1, 2, 3, Lin.Deq (Some 1)) ] );
    ( "empty dequeue concurrent with an enqueue",
      [ (0, 1, 3, Lin.Enq 1); (1, 2, 4, Lin.Deq None); (1, 5, 6, Lin.Deq (Some 1)) ] );
    ( "overlapping enqueues, either order",
      [
        (0, 1, 4, Lin.Enq 1);
        (1, 2, 3, Lin.Enq 2);
        (0, 5, 6, Lin.Deq (Some 2));
        (1, 7, 8, Lin.Deq (Some 1));
      ] );
    ("empty history", []);
  ]

let reject_cases =
  [
    ("lost value", [ (0, 1, 2, Lin.Enq 1); (1, 5, 6, Lin.Deq None) ]);
    ( "duplicated value",
      [
        (0, 1, 2, Lin.Enq 1);
        (1, 3, 4, Lin.Deq (Some 1));
        (1, 5, 6, Lin.Deq (Some 1));
      ] );
    ( "reordered dequeues of ordered enqueues",
      [
        (0, 1, 2, Lin.Enq 1);
        (0, 3, 4, Lin.Enq 2);
        (1, 5, 6, Lin.Deq (Some 2));
        (1, 7, 8, Lin.Deq (Some 1));
      ] );
    ("value never enqueued", [ (0, 1, 2, Lin.Deq (Some 5)) ]);
  ]

(* Every real queue, exercised under schedules that maximally decouple
   execution order from virtual time, must still produce linearizable
   histories. *)
let cross_check (mk : Hqueue.Intf.maker) () =
  List.iter
    (fun threads ->
      List.iter
        (fun seed ->
          let scn = Scenario.queue_lin mk ~threads ~ops:4 in
          List.iter
            (fun strategy ->
              match
                scn.scn_run ~strategy ~seed ~faults:None ~record:None ~trace:None
                  ~tracer:None
              with
              | Scenario.Pass -> ()
              | Scenario.Fail msg ->
                Alcotest.failf "%s, %d threads, seed %d, %s:\n%s" mk.queue_name threads
                  seed
                  (Format.asprintf "%a" Sim.pp_strategy strategy)
                  msg)
            [
              Sim.Random_walk { rw_seed = seed };
              Sim.Pct { pct_seed = seed; pct_depth = 3; pct_length = 500 };
            ])
        [ 11; 23; 37 ])
    [ 2; 3; 4 ]

let () =
  Alcotest.run "linearize"
    [
      ( "accepts",
        List.map
          (fun (name, ops) -> Alcotest.test_case name `Quick (accepts name ops))
          accept_cases );
      ( "rejects",
        List.map
          (fun (name, ops) -> Alcotest.test_case name `Quick (rejects name ops))
          reject_cases );
      ( "queues",
        List.map
          (fun (mk : Hqueue.Intf.maker) ->
            Alcotest.test_case (mk.queue_name ^ " under adversarial schedules") `Quick
              (cross_check mk))
          Hqueue.all_with_extensions );
    ]
