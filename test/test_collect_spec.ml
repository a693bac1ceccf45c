(* Concurrent specification tests: randomized workloads over every
   algorithm, with every collect checked offline against the paper's §2.3
   conditions (validity and completeness), plus leak accounting. *)

let run_cfg name (cfg : Chaos.config) () =
  List.iter
    (fun (mk : Collect.Intf.maker) ->
      match Chaos.run mk cfg with
      | verdict, leaked ->
        if verdict.checked_collects = 0 then
          Alcotest.failf "%s/%s: workload produced no collects" name mk.algo_name;
        Alcotest.(check int) (Printf.sprintf "%s/%s: leaks" name mk.algo_name) 0 leaked
      | exception Collect_spec.Violation msg ->
        Alcotest.failf "%s/%s: specification violated: %s" name mk.algo_name msg)
    Collect.all_with_extensions

let cfgs =
  let open Chaos in
  [
    ("balanced s1", { default with seed = 101 });
    ("balanced s2", { default with seed = 202; threads = 8; budget = 64 });
    ("balanced small steps", { default with seed = 303; step = Collect.Intf.Fixed 2 });
    ("balanced adaptive", { default with seed = 404; step = Collect.Intf.Adaptive });
    ( "churn s1",
      { default with seed = 505; mix = churn; budget = 32; threads = 8; min_size = 1 } );
    ( "churn s2",
      { default with seed = 606; mix = churn; budget = 24; threads = 5; min_size = 2 } );
    ( "churn big steps",
      { default with seed = 707; mix = churn; step = Collect.Intf.Fixed 32; min_size = 1 } );
    ("collect-heavy s1", { default with seed = 808; mix = collect_heavy; threads = 4 });
    ( "collect-heavy s2",
      { default with seed = 909; mix = collect_heavy; threads = 10; budget = 60 } );
    (* §6 HTM variations: correctness must survive a TLE fallback path and
       a small store buffer (more overflow aborts and lock serialization). *)
    ( "tle fallback",
      { default with
        seed = 1001;
        mix = churn;
        htm = { Htm.default_config with tle = Htm.Tle_after 2 } } );
    ( "small store buffer",
      { default with
        seed = 1102;
        step = Collect.Intf.Adaptive;
        htm = { Htm.default_config with store_buffer = 8 } } );
    ( "tle + tiny buffer",
      { default with
        seed = 1203;
        threads = 8;
        htm = { Htm.default_config with store_buffer = 8; tle = Htm.Tle_after 3 } } );
  ]

(* Broad seed sweep: the same three mixes over many independent seeds. *)
let sweep_cfgs =
  List.concat_map
    (fun seed ->
      let open Chaos in
      [
        (Printf.sprintf "sweep balanced %d" seed, { default with seed });
        ( Printf.sprintf "sweep churn %d" seed,
          { default with seed = seed + 1; mix = churn; budget = 32; min_size = 2 } );
        ( Printf.sprintf "sweep heavy %d" seed,
          { default with seed = seed + 2; mix = collect_heavy; threads = 8 } );
      ])
    [ 3001; 3101; 3201; 3301 ]

(* The oracle itself, on hand-written single-thread histories: a stub
   instance whose collect returns whatever the case chose, so each of the
   four violations can be provoked on purpose. Logical stamps count every
   wrapper entry and exit from 1, which makes the messages exact. *)
module Stub = struct
  type t = {
    inst : Collect.Intf.instance;
    answer : int list ref;  (** what the next collect returns *)
    crash : bool ref;  (** the next register/update/deregister raises *)
  }

  let create () =
    let answer = ref [] and crash = ref false and next_handle = ref 100 in
    let maybe_crash () =
      if !crash then begin
        crash := false;
        raise Sim.Stop_thread
      end
    in
    let inst =
      {
        Collect.Intf.name = "stub";
        register =
          (fun _ _ ->
            maybe_crash ();
            incr next_handle;
            !next_handle);
        update = (fun _ _ _ -> maybe_crash ());
        deregister = (fun _ _ -> maybe_crash ());
        collect = (fun _ buf -> List.iter (Sim.Ibuf.add buf) !answer);
        destroy = (fun _ -> ());
        step_histogram = (fun () -> []);
      }
    in
    { inst; answer; crash }
end

(* Run [history] against a fresh checker and stub, then check it. *)
let run_history history =
  let spec = Collect_spec.create () in
  let stub = Stub.create () in
  let ctx = Sim.boot () in
  let collect answer =
    stub.answer := answer;
    Collect_spec.collect spec stub.inst ctx
  in
  let crashing f =
    stub.crash := true;
    match f () with
    | _ -> Alcotest.fail "stub operation did not crash"
    | exception Sim.Stop_thread -> ()
  in
  history ~spec ~inst:stub.inst ~ctx ~collect ~crashing;
  Collect_spec.check spec

let rejects expected history () =
  match run_history history with
  | _ -> Alcotest.failf "history accepted; expected %S" expected
  | exception Collect_spec.Violation msg -> Alcotest.(check string) "violation" expected msg

let accepts ~collects ~values history () =
  match run_history history with
  | v ->
    Alcotest.(check int) "checked collects" collects v.checked_collects;
    Alcotest.(check int) "checked values" values v.checked_values
  | exception Collect_spec.Violation msg -> Alcotest.failf "history rejected: %s" msg

let oracle_cases =
  [
    ( "unknown value",
      rejects "collect returned unknown value 99"
        (fun ~spec ~inst ~ctx ~collect ~crashing:_ ->
          ignore (Collect_spec.register spec inst ctx);
          collect [ 1; 99 ]) );
    ( "bound after the collect ended",
      rejects "value 1 bound at [3,4], after collect [1,2] ended"
        (fun ~spec ~inst ~ctx ~collect ~crashing:_ ->
          collect [ 1 ];
          ignore (Collect_spec.register spec inst ctx)) );
    ( "superseded by an update",
      rejects "value 1 superseded at 4, before collect [5,6] began"
        (fun ~spec ~inst ~ctx ~collect ~crashing:_ ->
          let h = Collect_spec.register spec inst ctx in
          Collect_spec.update spec inst ctx h;
          collect [ 1 ]) );
    ( "superseded by a deregister",
      rejects "value 1 superseded at 4, before collect [5,6] began"
        (fun ~spec ~inst ~ctx ~collect ~crashing:_ ->
          let h = Collect_spec.register spec inst ctx in
          Collect_spec.deregister spec inst ctx h;
          collect [ 1 ]) );
    ( "required handle missing",
      rejects "handle 1 (registered at [3,4]) missing from collect [7,8]"
        (fun ~spec ~inst ~ctx ~collect ~crashing:_ ->
          let h0 = Collect_spec.register spec inst ctx in
          ignore (Collect_spec.register spec inst ctx);
          Collect_spec.update spec inst ctx h0;
          collect [ 3 ]) );
    ( "clean history",
      accepts ~collects:3 ~values:5 (fun ~spec ~inst ~ctx ~collect ~crashing:_ ->
          let h0 = Collect_spec.register spec inst ctx in
          let h1 = Collect_spec.register spec inst ctx in
          collect [ 1; 2 ];
          Collect_spec.update spec inst ctx h0;
          collect [ 3; 2 ];
          Collect_spec.deregister spec inst ctx h1;
          collect [ 3 ]) );
    ( "crashed binds are allowed, never required",
      accepts ~collects:4 ~values:3 (fun ~spec ~inst ~ctx ~collect ~crashing ->
          (* value 1: a register that never returned *)
          crashing (fun () -> ignore (Collect_spec.register spec inst ctx));
          collect [];
          collect [ 1 ];
          (* value 2 registered; value 3: an update that never returned,
             so 2 is never superseded and either may be returned *)
          let h = Collect_spec.register spec inst ctx in
          crashing (fun () -> Collect_spec.update spec inst ctx h);
          collect [ 2 ];
          collect [ 3 ]) );
    ( "crashed deregister excuses its handle",
      accepts ~collects:1 ~values:0 (fun ~spec ~inst ~ctx ~collect ~crashing ->
          let h = Collect_spec.register spec inst ctx in
          crashing (fun () -> Collect_spec.deregister spec inst ctx h);
          collect []) );
  ]

let () =
  Alcotest.run "collect-spec"
    [
      ( "oracle",
        List.map (fun (name, f) -> Alcotest.test_case name `Quick f) oracle_cases );
      ( "chaos",
        List.map (fun (name, cfg) -> Alcotest.test_case name `Quick (run_cfg name cfg)) cfgs );
      ( "seed-sweep",
        List.map
          (fun (name, cfg) -> Alcotest.test_case name `Slow (run_cfg name cfg))
          sweep_cfgs );
    ]
