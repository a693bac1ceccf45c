(* The explorer machinery: strategy determinism, the deviation/replay
   invariant, PCT change-point properties, and the end-to-end pipeline
   (find -> shrink -> artifact -> deterministic replay) on the two seeded
   known-bad scenarios. *)

module E = Explore

let run_recorded ~strategy ~seed (scn : E.Scenario.t) =
  let r = Sim.recorder () in
  let outcome =
    scn.scn_run ~strategy ~seed ~faults:None ~record:(Some r) ~trace:None ~tracer:None
  in
  (outcome, r)

let racy = E.Scenario.racy_counter ~threads:3 ~ops:5 ()

(* Same seed and strategy => byte-identical decision strings. *)
let test_strategy_determinism () =
  List.iter
    (fun strategy ->
      let _, r1 = run_recorded ~strategy ~seed:7 racy in
      let _, r2 = run_recorded ~strategy ~seed:7 racy in
      Alcotest.(check string)
        (Format.asprintf "%a" Sim.pp_strategy strategy)
        (Sim.decision_string r1) (Sim.decision_string r2))
    [
      Sim.Min_clock;
      Sim.Random_walk { rw_seed = 42 };
      Sim.Pct { pct_seed = 42; pct_depth = 3; pct_length = 200 };
    ]

(* An empty deviation list IS the min-clock schedule. *)
let test_deviate_empty_is_min_clock () =
  let _, r1 = run_recorded ~strategy:Sim.Min_clock ~seed:7 racy in
  let _, r2 = run_recorded ~strategy:(Sim.Deviate []) ~seed:7 racy in
  Alcotest.(check string)
    "picks equal" (Sim.decision_string r1) (Sim.decision_string r2)

(* The replay invariant behind shrinking: re-running under Deviate
   (deviations r) reproduces the recorded schedule pick-for-pick. *)
let test_replay_invariant () =
  List.iter
    (fun strategy ->
      let _, r1 = run_recorded ~strategy ~seed:13 racy in
      let _, r2 =
        run_recorded ~strategy:(Sim.Deviate (Sim.deviations r1)) ~seed:13 racy
      in
      Alcotest.(check string)
        (Format.asprintf "replay of %a" Sim.pp_strategy strategy)
        (Sim.decision_string r1) (Sim.decision_string r2))
    [
      Sim.Random_walk { rw_seed = 99 };
      Sim.Pct { pct_seed = 99; pct_depth = 4; pct_length = 300 };
    ]

let prop_pct_change_points =
  QCheck.Test.make ~name:"pct_change_points: count, range, order, determinism"
    ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (seed, depth, length) ->
      let pts = Sim.pct_change_points ~seed ~depth ~length in
      let again = Sim.pct_change_points ~seed ~depth ~length in
      List.length pts = max 0 (depth - 1)
      && List.for_all (fun p -> p >= 0 && p < max 1 length) pts
      && List.sort compare pts = pts
      && pts = again)

let find_one ~budget scn =
  match E.Search.search ~base_seed:1 ~max_violations:1 ~budget [ scn ] with
  | { res_violations = [ v ]; _ } -> v
  | { res_violations = []; _ } ->
    Alcotest.failf "no violation found in %s within %d schedules" scn.E.Scenario.scn_key
      budget
  | _ -> assert false

let check_found_shrunk_replays ~budget scn =
  let v = find_one ~budget scn in
  let a = v.vio_artifact in
  Alcotest.(check bool) "recorded deviations reproduced the failure" true v.vio_replayed;
  if List.length a.art_deviations > 20 then
    Alcotest.failf "shrunken trace has %d deviations (> 20)"
      (List.length a.art_deviations);
  (* deterministic replay: twice, same failure *)
  let replay () =
    match E.Search.replay_artifact a with
    | Ok (E.Scenario.Fail msg) -> msg
    | Ok E.Scenario.Pass -> Alcotest.failf "artifact did not reproduce"
    | Error e -> Alcotest.failf "artifact did not resolve: %s" e
  in
  let m1 = replay () and m2 = replay () in
  Alcotest.(check string) "replay is deterministic" m1 m2

let test_racy_found () = check_found_shrunk_replays ~budget:60 racy

let test_broken_rop_found () =
  check_found_shrunk_replays ~budget:200
    (E.Scenario.queue_lin ~key:"broken-rop" E.Mutant.maker ~threads:3 ~ops:5)

(* The mutant's bug is schedule-dependent: the plain min-clock schedule
   must pass, or the queue tests themselves would have caught it. *)
let test_broken_rop_passes_min_clock () =
  let scn = E.Scenario.queue_lin ~key:"broken-rop" E.Mutant.maker ~threads:3 ~ops:5 in
  match
    scn.scn_run ~strategy:Sim.Min_clock ~seed:1 ~faults:None ~record:None ~trace:None
      ~tracer:None
  with
  | E.Scenario.Pass -> ()
  | E.Scenario.Fail msg -> Alcotest.failf "failed under min-clock: %s" msg

let test_clean_queues () =
  let scns = E.Scenario.queues ~threads:3 ~ops:5 () in
  let s = E.Search.search ~base_seed:5 ~budget:60 scns in
  Alcotest.(check int) "violations" 0 (List.length s.res_violations);
  Alcotest.(check int) "runs" 60 s.res_runs

let test_artifact_roundtrip () =
  let a =
    {
      E.Artifact.art_scenario = "queue:MichaelScott+ROP";
      art_threads = 3;
      art_ops = 5;
      art_seed = 12345;
      art_model = "sb";
      art_deviations = [ (3, 1); (17, 0); (29, 2) ];
      art_faults = Some (E.Search.light_faults 99);
      art_message = "memory fault: use-after-free at 0x2b\nsecond line";
      art_trace = [ "t0  @50  mem  read 0x8 -> 0"; "t1  @60  htm  commit" ];
    }
  in
  match E.Artifact.of_string (E.Artifact.to_string a) with
  | Ok b ->
    Alcotest.(check bool) "round-trips" true (a = b);
    let none = { a with art_faults = None; art_trace = []; art_deviations = [] } in
    (match E.Artifact.of_string (E.Artifact.to_string none) with
    | Ok c -> Alcotest.(check bool) "empty fields round-trip" true (none = c)
    | Error e -> Alcotest.failf "parse: %s" e)
  | Error e -> Alcotest.failf "parse: %s" e

(* Both explorer outputs of a faulted run, pinned by digest: the text
   trace's lines (fault lines among the accesses and transactions) and
   the Perfetto timeline (scheduler slices and fault instants among the
   machine's events). A digest that moves means an event, its order or
   its rendering changed. *)
let test_fault_trace_pinned () =
  let scn = E.Scenario.queue_lin Hqueue.Htm_queue.maker ~threads:3 ~ops:5 in
  let faults = Some { (E.Search.light_faults 11) with stall_rate = 0.05 } in
  let trace = E.Trace.create () in
  let t = Obs.Tracer.create () in
  let sink = Obs.Tracer.process t ~name:"replay" in
  (match
     scn.scn_run ~strategy:Sim.Min_clock ~seed:3 ~faults ~record:None ~trace:(Some trace)
       ~tracer:(Some sink)
   with
  | E.Scenario.Pass -> ()
  | E.Scenario.Fail msg -> Alcotest.failf "faulted run failed: %s" msg);
  let lines = E.Trace.lines trace in
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  let has affix s = Astring.String.is_infix ~affix s in
  Alcotest.(check bool) "fault lines in the trace" true (List.exists (has " flt ") lines);
  Alcotest.(check bool) "stall instants in the timeline" true (has "fault.stall" js);
  Alcotest.(check bool) "run slices in the timeline" true (has "\"run\"" js);
  Alcotest.(check string) "trace lines digest" "c13acf9b9b188b8bc25d6c778b6904f4"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)));
  Alcotest.(check string) "timeline digest" "c4f5c038d14ab59d946972cf3d0c12e0"
    (Digest.to_hex (Digest.string js))

let () =
  Alcotest.run "explore"
    [
      ( "strategies",
        [
          Alcotest.test_case "same seed, same decisions" `Quick test_strategy_determinism;
          Alcotest.test_case "Deviate [] is min-clock" `Quick test_deviate_empty_is_min_clock;
          Alcotest.test_case "deviations replay pick-for-pick" `Quick test_replay_invariant;
          QCheck_alcotest.to_alcotest prop_pct_change_points;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "racy counter: found, shrunk, replayed" `Quick test_racy_found;
          Alcotest.test_case "broken ROP: found, shrunk, replayed" `Quick test_broken_rop_found;
          Alcotest.test_case "broken ROP passes min-clock" `Quick test_broken_rop_passes_min_clock;
          Alcotest.test_case "clean queues: no violations" `Quick test_clean_queues;
          Alcotest.test_case "artifact round-trip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "faulted run's trace and timeline pinned" `Quick
            test_fault_trace_pinned;
        ] );
    ]
