type violation = {
  vio_artifact : Artifact.t;
  vio_replayed : bool;
  vio_shrink_tests : int;
}

type summary = {
  res_runs : int;
  res_passed : int;
  res_violations : violation list;
}

(* Rounds cycle through the strategy family; round 0 is the plain
   min-clock schedule, so every scenario is sanity-run once before the
   adversarial schedules start. *)
let strategy_for ~round ~seed =
  if round = 0 then Sim.Min_clock
  else
    match (round - 1) mod 4 with
    | 0 -> Sim.Random_walk { rw_seed = seed }
    | 1 -> Sim.Pct { pct_seed = seed; pct_depth = 3; pct_length = 384 }
    | 2 -> Sim.Random_walk { rw_seed = seed lxor 0x9e3779b9 }
    | _ -> Sim.Pct { pct_seed = seed; pct_depth = 4; pct_length = 512 }

(* Kill-free adversity: preemption stalls plus Rock-style spurious aborts.
   Kills are omitted so the same plan is valid for every scenario kind
   (linearizability histories cannot absorb vanished operations). *)
let light_faults seed =
  {
    Sim.Fault.none with
    fault_seed = seed;
    stall_rate = 0.02;
    stall_cycles = 400;
    spurious_abort_rate = 0.02;
  }

let shrink_and_package (scn : Scenario.t) ~seed ~faults ~deviations ~message =
  let replay ~deviations ~faults =
    match
      scn.scn_run ~strategy:(Sim.Deviate deviations) ~seed ~faults ~record:None
        ~trace:None ~tracer:None
    with
    | Scenario.Fail _ -> true
    | Scenario.Pass -> false
  in
  let reproduced = replay ~deviations ~faults in
  let shr =
    if reproduced then Shrink.minimize ~replay deviations faults
    else { Shrink.shr_deviations = deviations; shr_faults = faults; shr_tests = 0 }
  in
  let tr = Trace.create () in
  let final =
    scn.scn_run
      ~strategy:(Sim.Deviate shr.shr_deviations)
      ~seed ~faults:shr.shr_faults ~record:None ~trace:(Some tr) ~tracer:None
  in
  let message = match final with Scenario.Fail m -> m | Scenario.Pass -> message in
  {
    vio_artifact =
      {
        Artifact.art_scenario = scn.scn_key;
        art_threads = scn.scn_threads;
        art_ops = scn.scn_ops;
        art_seed = seed;
        art_model = Sim.Memmodel.to_string scn.scn_model;
        art_deviations = shr.shr_deviations;
        art_faults = shr.shr_faults;
        art_message = message;
        art_trace = Trace.lines tr;
      };
    vio_replayed = reproduced;
    vio_shrink_tests = shr.shr_tests;
  }

let search ?(offset = 0) ?(base_seed = 1) ?(with_faults = false) ?(max_violations = 3) ?log
    ~budget (scenarios : Scenario.t list) =
  let scenarios = Array.of_list scenarios in
  let ns = Array.length scenarios in
  if ns = 0 then invalid_arg "Search.search: no scenarios";
  let say fmt = Printf.ksprintf (fun s -> match log with Some f -> f s | None -> ()) fmt in
  let violations = ref [] in
  let nvio = ref 0 in
  let passed = ref 0 in
  let runs = ref 0 in
  (try
     for run = offset to offset + budget - 1 do
       let scn = scenarios.(run mod ns) in
       let round = run / ns in
       let seed = base_seed + (run * 7919) in
       let strategy = strategy_for ~round ~seed in
       let faults =
         if with_faults && round > 0 && round mod 2 = 0 then
           Some (light_faults (seed lxor 0x5f3759df))
         else None
       in
       let rec_ = Sim.recorder () in
       incr runs;
       match
         scn.scn_run ~strategy ~seed ~faults ~record:(Some rec_) ~trace:None ~tracer:None
       with
       | Scenario.Pass -> incr passed
       | Scenario.Fail message ->
         say "violation in %s under %s (seed %d): %s" scn.scn_key
           (Format.asprintf "%a" Sim.pp_strategy strategy)
           seed message;
         let vio =
           shrink_and_package scn ~seed ~faults ~deviations:(Sim.deviations rec_)
             ~message
         in
         say "  shrunk to %d deviations in %d replays%s"
           (List.length vio.vio_artifact.art_deviations)
           vio.vio_shrink_tests
           (if vio.vio_replayed then "" else " (WARNING: did not replay)");
         violations := vio :: !violations;
         incr nvio;
         if !nvio >= max_violations then raise Exit
     done
   with Exit -> ());
  { res_runs = !runs; res_passed = !passed; res_violations = List.rev !violations }

(* Shard the run range [0, budget) contiguously across a domain pool.
   Each shard is the serial [search] over its own range — run indices,
   and so seeds, strategies and fault plans, are exactly the serial
   ones — and the merged summary lists violations in run order, so the
   union of work is independent of [jobs]. Per-shard [max_violations]
   still bounds each shard's shrink work, but a sharded search can
   return up to [jobs * max_violations] violations where the serial one
   stops at [max_violations]. [log] is only attached at jobs = 1:
   domains interleaving progress lines would scramble them. *)
let search_sharded ?(jobs = 1) ?(base_seed = 1) ?(with_faults = false) ?(max_violations = 3)
    ?log ~budget scenarios =
  if jobs <= 1 || budget <= 1 then
    search ~base_seed ~with_faults ~max_violations ?log ~budget scenarios
  else begin
    let jobs = min jobs budget in
    let chunk = (budget + jobs - 1) / jobs in
    let shards =
      List.init jobs (fun k ->
          let lo = k * chunk in
          (lo, min budget (lo + chunk) - lo))
      |> List.filter (fun (_, n) -> n > 0)
    in
    let results =
      Runner.Pool.map ~jobs
        (fun (offset, n) ->
          search ~offset ~base_seed ~with_faults ~max_violations ~budget:n scenarios)
        (Array.of_list shards)
    in
    Array.fold_left
      (fun acc s ->
        {
          res_runs = acc.res_runs + s.res_runs;
          res_passed = acc.res_passed + s.res_passed;
          res_violations = acc.res_violations @ s.res_violations;
        })
      { res_runs = 0; res_passed = 0; res_violations = [] }
      results
  end

let replay_artifact ?trace ?tracer (a : Artifact.t) =
  match Sim.Memmodel.of_string a.art_model with
  | None -> Error (Printf.sprintf "unknown memory model %S" a.art_model)
  | Some model -> (
    match
      Scenario.build ~key:a.art_scenario ~model ~threads:a.art_threads ~ops:a.art_ops ()
    with
    | Error e -> Error e
    | Ok scn ->
      Ok
        (scn.scn_run
           ~strategy:(Sim.Deviate a.art_deviations)
           ~seed:a.art_seed ~faults:a.art_faults ~record:None ~trace ~tracer))
