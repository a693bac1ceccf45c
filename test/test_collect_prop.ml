(* Property-based single-threaded model checking: a random operation
   script is run against each collect implementation and against a purely
   functional model (handle slot -> value). With no concurrency the §2.3
   specification collapses to exact equality: every collect must return
   precisely the model's current bindings (as a multiset). *)

type op =
  | Register
  | Update of int  (* index into currently live handles *)
  | Deregister of int
  | Do_collect

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Register);
        (3, map (fun i -> Update i) (int_bound 100));
        (2, map (fun i -> Deregister i) (int_bound 100));
        (3, return Do_collect);
      ])

let script_gen = QCheck.Gen.(list_size (int_range 1 80) op_gen)

let print_op = function
  | Register -> "R"
  | Update i -> Printf.sprintf "U%d" i
  | Deregister i -> Printf.sprintf "D%d" i
  | Do_collect -> "C"

let arbitrary_script =
  QCheck.make ~print:(fun s -> String.concat ";" (List.map print_op s)) script_gen

(* Run the script; returns the list of collect snapshots (sorted). *)
let run_real (mk : Collect.Intf.maker) script =
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let cfg =
    { Collect.Intf.max_slots = 128; num_threads = 1; step = Collect.Intf.Fixed 4;
      min_size = 2 }
  in
  let inst = mk.make htm boot cfg in
  let snapshots = ref [] in
  Sim.run ~seed:1
    [|
      (fun ctx ->
        let handles = ref [||] in
        let next = ref 0 in
        let buf = Sim.Ibuf.create () in
        List.iter
          (fun op ->
            match op with
            | Register ->
              incr next;
              let h = inst.register ctx !next in
              handles := Array.append !handles [| h |]
            | Update i when Array.length !handles > 0 ->
              incr next;
              inst.update ctx !handles.(i mod Array.length !handles) !next
            | Deregister i when Array.length !handles > 0 ->
              let n = Array.length !handles in
              let k = i mod n in
              inst.deregister ctx !handles.(k);
              handles := Array.init (n - 1) (fun j -> if j < k then !handles.(j) else !handles.(j + 1))
            | Update _ | Deregister _ -> ()
            | Do_collect ->
              Sim.Ibuf.clear buf;
              inst.collect ctx buf;
              snapshots := List.sort compare (Sim.Ibuf.to_list buf) :: !snapshots)
          script)
    |];
  List.rev !snapshots

(* The functional model: a list of values in registration order. *)
let run_model script =
  let bindings = ref [||] in
  let next = ref 0 in
  let snapshots = ref [] in
  List.iter
    (fun op ->
      match op with
      | Register ->
        incr next;
        bindings := Array.append !bindings [| !next |]
      | Update i when Array.length !bindings > 0 ->
        incr next;
        !bindings.(i mod Array.length !bindings) <- !next
      | Deregister i when Array.length !bindings > 0 ->
        let n = Array.length !bindings in
        let k = i mod n in
        bindings := Array.init (n - 1) (fun j -> if j < k then !bindings.(j) else !bindings.(j + 1))
      | Update _ | Deregister _ -> ()
      | Do_collect ->
        snapshots := List.sort compare (Array.to_list !bindings) :: !snapshots)
    script;
  List.rev !snapshots

let prop_of mk =
  QCheck.Test.make
    ~name:(mk.Collect.Intf.algo_name ^ " sequentially equals the model")
    ~count:150 arbitrary_script
    (fun script -> run_real mk script = run_model script)

(* Concurrent runs checked against the §2.3 specification itself
   (Collect_spec via the explorer's scenario wrapper), under the default
   schedule and the two adversarial strategies. *)
let prop_concurrent_spec (mk : Collect.Intf.maker) (sname, count, strat) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s meets the collect spec (%s)" mk.Collect.Intf.algo_name sname)
    ~count QCheck.small_int
    (fun seed ->
      let scn = Explore.Scenario.collect_spec mk ~threads:3 ~ops:4 in
      match
        scn.scn_run ~strategy:(strat seed) ~seed ~faults:None ~record:None ~trace:None
          ~tracer:None
      with
      | Explore.Scenario.Pass -> true
      | Explore.Scenario.Fail msg -> QCheck.Test.fail_report msg)

let strategies =
  [
    ("min-clock", 6, fun _seed -> Sim.Min_clock);
    ("random-walk", 5, fun seed -> Sim.Random_walk { rw_seed = seed });
    ( "pct",
      5,
      fun seed -> Sim.Pct { pct_seed = seed; pct_depth = 3; pct_length = 1000 } );
  ]

(* StaticBaseline partitions slots by thread, so a single thread only owns
   a share of the budget; bound the live-handle count accordingly by
   filtering scripts is overkill — with max_slots 128 and one thread quota
   is 128, which the 80-op scripts cannot exceed. All makers qualify. *)
let () =
  Alcotest.run "collect-model"
    [
      ( "sequential",
        List.map (fun mk -> QCheck_alcotest.to_alcotest (prop_of mk))
          Collect.all_with_extensions );
      ( "concurrent-spec",
        List.concat_map
          (fun mk ->
            List.map
              (fun s -> QCheck_alcotest.to_alcotest (prop_concurrent_spec mk s))
              strategies)
          Collect.all_with_extensions );
    ]
