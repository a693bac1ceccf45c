(* Unit and property tests for the integer buffer used as collect result
   sets. *)

let test_empty () =
  let b = Sim.Ibuf.create () in
  Alcotest.(check int) "empty length" 0 (Sim.Ibuf.length b);
  Alcotest.(check (list int)) "empty list" [] (Sim.Ibuf.to_list b)

let test_add_get () =
  let b = Sim.Ibuf.create ~capacity:2 () in
  for i = 0 to 99 do
    Sim.Ibuf.add b (i * i)
  done;
  Alcotest.(check int) "length" 100 (Sim.Ibuf.length b);
  Alcotest.(check int) "get 0" 0 (Sim.Ibuf.get b 0);
  Alcotest.(check int) "get 99" (99 * 99) (Sim.Ibuf.get b 99)

let test_out_of_bounds () =
  let b = Sim.Ibuf.create () in
  Sim.Ibuf.add b 1;
  Alcotest.check_raises "negative" (Invalid_argument "Ibuf.get: index out of bounds")
    (fun () -> ignore (Sim.Ibuf.get b (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Ibuf.get: index out of bounds")
    (fun () -> ignore (Sim.Ibuf.get b 1))

let test_clear_keeps_storage () =
  let b = Sim.Ibuf.create () in
  Sim.Ibuf.add b 5;
  Sim.Ibuf.clear b;
  Alcotest.(check int) "cleared" 0 (Sim.Ibuf.length b);
  Sim.Ibuf.add b 7;
  Alcotest.(check (list int)) "reusable" [ 7 ] (Sim.Ibuf.to_list b)

let test_reset_to () =
  let b = Sim.Ibuf.create () in
  List.iter (Sim.Ibuf.add b) [ 1; 2; 3; 4; 5 ];
  Sim.Ibuf.reset_to b 2;
  Alcotest.(check (list int)) "truncated" [ 1; 2 ] (Sim.Ibuf.to_list b);
  Alcotest.check_raises "reset beyond length" (Invalid_argument "Ibuf.reset_to: bad length")
    (fun () -> Sim.Ibuf.reset_to b 3)

let test_iter_fold () =
  let b = Sim.Ibuf.create () in
  List.iter (Sim.Ibuf.add b) [ 10; 20; 30 ];
  let seen = ref [] in
  Sim.Ibuf.iter (fun x -> seen := x :: !seen) b;
  Alcotest.(check (list int)) "iter order" [ 30; 20; 10 ] !seen;
  Alcotest.(check int) "fold sum" 60 (Sim.Ibuf.fold ( + ) 0 b)

let test_pop () =
  let b = Sim.Ibuf.create () in
  List.iter (Sim.Ibuf.add b) [ 1; 2; 3 ];
  Alcotest.(check int) "last in" 3 (Sim.Ibuf.pop b);
  Alcotest.(check (list int)) "rest" [ 1; 2 ] (Sim.Ibuf.to_list b);
  Sim.Ibuf.clear b;
  Alcotest.check_raises "empty" (Invalid_argument "Ibuf.pop: empty")
    (fun () -> ignore (Sim.Ibuf.pop b))

let prop_model =
  QCheck.Test.make ~name:"Ibuf behaves like a list" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let b = Sim.Ibuf.create () in
      List.iter (Sim.Ibuf.add b) xs;
      Sim.Ibuf.to_list b = xs && Sim.Ibuf.length b = List.length xs)

let prop_reset_prefix =
  QCheck.Test.make ~name:"reset_to keeps the prefix" ~count:300
    QCheck.(pair (list small_int) small_nat)
    (fun (xs, n) ->
      QCheck.assume (n <= List.length xs);
      let b = Sim.Ibuf.create () in
      List.iter (Sim.Ibuf.add b) xs;
      Sim.Ibuf.reset_to b n;
      Sim.Ibuf.to_list b = List.filteri (fun i _ -> i < n) xs)

let prop_filter =
  QCheck.Test.make ~name:"filter_in_place is List.filter" ~count:300
    QCheck.(pair (list small_int) small_nat)
    (fun (xs, m) ->
      let p x = x mod (m + 2) <> 0 in
      let b = Sim.Ibuf.create ~capacity:1 () in
      List.iter (Sim.Ibuf.add b) xs;
      Sim.Ibuf.filter_in_place p b;
      Sim.Ibuf.to_list b = List.filter p xs)

let () =
  Alcotest.run "ibuf"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/get with growth" `Quick test_add_get;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "clear" `Quick test_clear_keeps_storage;
          Alcotest.test_case "reset_to" `Quick test_reset_to;
          Alcotest.test_case "iter/fold" `Quick test_iter_fold;
          Alcotest.test_case "pop" `Quick test_pop;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_model; prop_reset_prefix; prop_filter ] );
    ]
