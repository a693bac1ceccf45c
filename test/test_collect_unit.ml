(* Single-threaded API tests run against every Dynamic Collect
   implementation: basic bind/collect/update/deregister semantics, capacity
   behaviour, resize behaviour, and leak-freedom. *)

let make_inst ?(max_slots = 64) ?(num_threads = 4) ?(min_size = 4)
    ?(step = Collect.Intf.Fixed 8) (maker : Collect.Intf.maker) =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let cfg = { Collect.Intf.max_slots; num_threads; step; min_size } in
  (mem, boot, maker.make htm boot cfg)

let collect_list inst ctx =
  let buf = Sim.Ibuf.create () in
  inst.Collect.Intf.collect ctx buf;
  List.sort compare (Sim.Ibuf.to_list buf)

(* Run [f] in a single simulated thread (thread id 0). *)
let in_thread f = Sim.run ~seed:1 [| f |]

let forall_makers f () = List.iter (fun mk -> f mk) Collect.all_with_extensions

let name_of (mk : Collect.Intf.maker) = mk.algo_name

let test_empty_collect mk =
  let _, _, inst = make_inst mk in
  in_thread (fun ctx ->
      Alcotest.(check (list int)) (name_of mk ^ ": empty") [] (collect_list inst ctx))

let test_register_collect mk =
  let _, _, inst = make_inst mk in
  in_thread (fun ctx ->
      let _h1 = inst.register ctx 11 in
      let _h2 = inst.register ctx 22 in
      Alcotest.(check (list int)) (name_of mk ^ ": both bound") [ 11; 22 ]
        (collect_list inst ctx))

let test_update_visible mk =
  let _, _, inst = make_inst mk in
  in_thread (fun ctx ->
      let h = inst.register ctx 5 in
      inst.update ctx h 6;
      Alcotest.(check (list int)) (name_of mk ^ ": updated value") [ 6 ]
        (collect_list inst ctx);
      inst.update ctx h 7;
      Alcotest.(check (list int)) (name_of mk ^ ": updated again") [ 7 ]
        (collect_list inst ctx))

let test_deregister_removes mk =
  let _, _, inst = make_inst mk in
  in_thread (fun ctx ->
      let h1 = inst.register ctx 1 in
      let h2 = inst.register ctx 2 in
      inst.deregister ctx h1;
      Alcotest.(check (list int)) (name_of mk ^ ": h1 gone") [ 2 ] (collect_list inst ctx);
      inst.deregister ctx h2;
      Alcotest.(check (list int)) (name_of mk ^ ": all gone") [] (collect_list inst ctx))

let test_many_handles mk =
  let _, _, inst = make_inst ~max_slots:128 mk in
  in_thread (fun ctx ->
      let n = 30 in
      let hs = Array.init n (fun i -> inst.register ctx (100 + i)) in
      Alcotest.(check (list int))
        (name_of mk ^ ": all present")
        (List.init n (fun i -> 100 + i))
        (collect_list inst ctx);
      (* deregister the even ones *)
      Array.iteri (fun i h -> if i mod 2 = 0 then inst.deregister ctx h) hs;
      Alcotest.(check (list int))
        (name_of mk ^ ": odds remain")
        (List.init (n / 2) (fun i -> 101 + (2 * i)))
        (collect_list inst ctx))

let test_reregister_after_dereg mk =
  let _, _, inst = make_inst mk in
  in_thread (fun ctx ->
      let h = inst.register ctx 1 in
      inst.deregister ctx h;
      let h2 = inst.register ctx 2 in
      Alcotest.(check (list int)) (name_of mk ^ ": fresh handle") [ 2 ]
        (collect_list inst ctx);
      inst.deregister ctx h2)

let test_no_leak mk =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let base = (Simmem.stats mem).live_blocks in
  let cfg =
    { Collect.Intf.max_slots = 64; num_threads = 2; step = Collect.Intf.Fixed 8; min_size = 4 }
  in
  let inst = mk.Collect.Intf.make htm boot cfg in
  in_thread (fun ctx ->
      let hs = Array.init 20 (fun i -> inst.register ctx (i + 1)) in
      Array.iter (fun h -> inst.deregister ctx h) hs);
  inst.destroy boot;
  Alcotest.(check int)
    (name_of mk ^ ": no leak after deregister-all + destroy")
    base
    (Simmem.stats mem).live_blocks

let test_static_capacity () =
  List.iter
    (fun name ->
      match Collect.find_maker name with
      | None -> Alcotest.failf "missing maker %s" name
      | Some mk ->
        let _, _, inst = make_inst ~max_slots:4 ~num_threads:1 mk in
        in_thread (fun ctx ->
            let hs = Array.init 4 (fun i -> inst.register ctx (i + 1)) in
            (try
               ignore (inst.register ctx 99);
               Alcotest.failf "%s: expected Capacity_exceeded" name
             with Collect.Intf.Capacity_exceeded _ -> ());
            Array.iter (fun h -> inst.deregister ctx h) hs))
    [ "ArrayStatSearchNo"; "ArrayStatAppendDereg"; "StaticBaseline" ]

let test_dynamic_grows () =
  List.iter
    (fun name ->
      match Collect.find_maker name with
      | None -> Alcotest.failf "missing maker %s" name
      | Some mk ->
        (* max_slots is irrelevant for dynamic algorithms: register far
           beyond it. *)
        let _, _, inst = make_inst ~max_slots:4 ~min_size:2 mk in
        in_thread (fun ctx ->
            let n = 100 in
            let hs = Array.init n (fun i -> inst.register ctx (i + 1)) in
            let got = collect_list inst ctx in
            Alcotest.(check int) (name ^ ": all registered") n (List.length got);
            Array.iter (fun h -> inst.deregister ctx h) hs;
            Alcotest.(check (list int)) (name ^ ": drained") [] (collect_list inst ctx)))
    [ "ArrayDynSearchResize"; "ArrayDynAppendDereg"; "ListHoHRC"; "ListFastCollect";
      "DynamicBaseline"; "ListFastCollectDeferred"; "ArrayDynAppendFastUpd" ]

let test_dynamic_array_shrinks () =
  (* The dynamic arrays must release memory when handles are deregistered:
     live words after dropping from 100 to 1 handles must be far below the
     peak. *)
  List.iter
    (fun name ->
      match Collect.find_maker name with
      | None -> Alcotest.failf "missing maker %s" name
      | Some mk ->
        let mem, _, inst = make_inst ~min_size:2 mk in
        in_thread (fun ctx ->
            let hs = Array.init 100 (fun i -> inst.register ctx (i + 1)) in
            let high = (Simmem.stats mem).live_words in
            Array.iteri (fun i h -> if i > 0 then inst.deregister ctx h) hs;
            let low = (Simmem.stats mem).live_words in
            Alcotest.(check bool)
              (Printf.sprintf "%s: shrinks (high=%d low=%d)" name high low)
              true
              (low * 4 < high);
            inst.deregister ctx hs.(0)))
    [ "ArrayDynSearchResize"; "ArrayDynAppendDereg"; "ListHoHRC"; "ListFastCollect";
      "ArrayDynAppendFastUpd" ]

let test_figure2_invariant () =
  (* ArrayDynAppendDereg maintains max(count, MIN) <= capacity <= 4*count
     at quiescence. Exercise a grow/shrink staircase and check memory use
     tracks the handle count. *)
  match Collect.find_maker "ArrayDynAppendDereg" with
  | None -> Alcotest.fail "maker missing"
  | Some mk ->
    let mem, _, inst = make_inst ~min_size:2 mk in
    in_thread (fun ctx ->
        let live () = (Simmem.stats mem).live_words in
        let handles = Queue.create () in
        for i = 1 to 64 do
          Queue.add (inst.register ctx i) handles
        done;
        let at64 = live () in
        for _ = 1 to 60 do
          inst.deregister ctx (Queue.pop handles)
        done;
        let at4 = live () in
        Alcotest.(check bool)
          (Printf.sprintf "array shrank with count (64:%d -> 4:%d)" at64 at4)
          true
          (at4 * 4 < at64);
        while not (Queue.is_empty handles) do
          inst.deregister ctx (Queue.pop handles)
        done)

(* Machine-behaviour pins. Each algorithm runs one four-thread script
   under [Fixed 2] and [Adaptive], for seeds 1-4: three workers register 8
   handles each (growing the dynamic arrays from [min_size] 2 past
   4·[min_size]; the slow third worker's registrations land in the others'
   copy windows and help them), update them, then deregister all but one
   (shrinking the arrays back) while a fourth thread collects (FastCollect
   restarts; its deferred mode reclaims). The last handles are deregistered after the run, so the
   deferred mode's [destroy] drains a non-empty to-be-freed list. One
   digest covers every machine event with its tid and clock, the heap and
   HTM statistics, each collected sequence and the step histogram: any
   change to a single access, its address, its order or its virtual time
   changes it. *)
let pin_digest (mk : Collect.Intf.maker) step =
  let acc = ref (Digest.string "") in
  let buf = Buffer.create 65536 in
  let flush () =
    acc := Digest.string (Digest.to_hex !acc ^ Buffer.contents buf);
    Buffer.clear buf
  in
  let add v =
    Buffer.add_string buf (Marshal.to_string v []);
    if Buffer.length buf > 60_000 then flush ()
  in
  for seed = 1 to 4 do
    let mem = Simmem.create () in
    let htm = Htm.create mem in
    Simmem.attach mem
      [ { Simmem.fold = (fun ~tid ~clock ev -> add (tid, clock, ev)); accesses = true;
          journal = false } ];
    let boot = Sim.boot () in
    let cfg = { Collect.Intf.max_slots = 64; num_threads = 4; step; min_size = 2 } in
    let inst = mk.make htm boot cfg in
    let kept = Array.make 3 0 in
    let worker w ctx =
      let base = 1000 * (w + 1) in
      let hs =
        Array.init 8 (fun i ->
            let h = inst.register ctx (base + i) in
            (* the third worker registers slowly, into the others' copy windows *)
            Sim.tick ctx (if w = 2 then 700 else 5 + (7 * w));
            h)
      in
      Array.iteri (fun i h -> inst.update ctx h (base + 100 + i)) hs;
      Array.iteri
        (fun i h ->
          if i > 0 then begin
            inst.deregister ctx h;
            Sim.tick ctx 50
          end)
        hs;
      kept.(w) <- hs.(0)
    in
    let collector ctx =
      for _ = 1 to 16 do
        let b = Sim.Ibuf.create () in
        inst.collect ctx b;
        add (Sim.Ibuf.to_list b);
        Sim.tick ctx 100
      done
    in
    Sim.run ~seed [| worker 0; worker 1; worker 2; collector |];
    Array.iter (fun h -> inst.deregister boot h) kept;
    let b = Sim.Ibuf.create () in
    inst.collect boot b;
    add (Sim.Ibuf.to_list b);
    inst.destroy boot;
    add (Simmem.stats mem, Htm.stats htm, inst.step_histogram ())
  done;
  flush ();
  Digest.to_hex !acc

let pinned =
  [
    ("ListHoHRC", "4251986911a7de9345560fbc1a6c0a2a",
      "598bedf380832b7e88e392b1051bfcea");
    ("ListFastCollect", "3bacdbab8ec8040ecd0346d769aacfd2",
      "38b5a1cb1593331a0c29fc81ad6d451d");
    ("ArrayStatSearchNo", "b16c608f96cd7ee12e01a5b7323e8422",
      "b16c608f96cd7ee12e01a5b7323e8422");
    ("ArrayStatAppendDereg", "3f1b420ce3d033ec587be144dd789d69",
      "5779e46e2c2a157e99f92728a3607850");
    ("ArrayDynSearchResize", "7a48ee3dd18e3df8d82d241897cc83b1",
      "6e6e8e46de06a4a1a9be2a73421f178a");
    ("ArrayDynAppendDereg", "32f97ff5ce86b2f59b14e06b33d3b062",
      "f456a9a1d35a00453428f57ead0e5af0");
    ("StaticBaseline", "1d7856f2148f9ff64eff36c9b9b7f1f1",
      "1d7856f2148f9ff64eff36c9b9b7f1f1");
    ("DynamicBaseline", "233f58e90a28dd662aa925fa96d133ef",
      "233f58e90a28dd662aa925fa96d133ef");
    ("ListFastCollectDeferred", "4918cd9415037929d1b002e06ad9a51d",
      "2ba7b4a1ff00572b8843eb2c5e624c6e");
    ("ArrayDynAppendFastUpd", "3b809a0273675859690046b0e270da64",
      "fdf4e178eae6df7b7a9bbc33b693f1d6");
  ]

let test_pinned_behaviour () =
  Alcotest.(check (list string)) "every maker is pinned"
    (List.map name_of Collect.all_with_extensions)
    (List.map (fun (n, _, _) -> n) pinned);
  List.iter
    (fun (name, fixed2, adaptive) ->
      let mk = Option.get (Collect.find_maker name) in
      Alcotest.(check string) (name ^ " Fixed 2") fixed2 (pin_digest mk (Collect.Intf.Fixed 2));
      Alcotest.(check string) (name ^ " Adaptive") adaptive
        (pin_digest mk Collect.Intf.Adaptive))
    pinned

let suite_for name f = Alcotest.test_case name `Quick (forall_makers f)

let () =
  Alcotest.run "collect-unit"
    [
      ( "all-algorithms",
        [
          suite_for "empty collect" test_empty_collect;
          suite_for "register + collect" test_register_collect;
          suite_for "update visible" test_update_visible;
          suite_for "deregister removes" test_deregister_removes;
          suite_for "many handles" test_many_handles;
          suite_for "reregister after dereg" test_reregister_after_dereg;
          suite_for "no leak" test_no_leak;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "static raises at bound" `Quick test_static_capacity;
          Alcotest.test_case "dynamic grows past bound" `Quick test_dynamic_grows;
          Alcotest.test_case "dynamic arrays shrink" `Quick test_dynamic_array_shrinks;
          Alcotest.test_case "figure 2 resize staircase" `Quick test_figure2_invariant;
        ] );
      ("pin", [ Alcotest.test_case "machine behaviour per algorithm" `Quick test_pinned_behaviour ]);
    ]
