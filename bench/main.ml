(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the simulated machine, plus the space measurements
   behind the §1 claims and the §6 ablations. The simulator's own
   wall-clock costs are measured by perfbench/.

     dune exec bench/main.exe                  # everything, quick settings
     dune exec bench/main.exe -- fig4          # one figure
     dune exec bench/main.exe -- fig4 -j 8     # same bytes, 8 domains
     dune exec bench/main.exe -- all --smoke --json --jobs 8
     dune exec bench/main.exe -- diff OLD.json NEW.json

   The experiments themselves live in the registry (experiments.ml); this
   file is only the CLI, the observability plumbing, and the artifact
   files. Throughput numbers are virtual-time (2000 cycles/µs); only
   shapes are comparable with the paper, never absolute values. *)

let pf fmt = Format.printf fmt

let chart_mode = ref false

(* Every table an experiment prints is also captured here (newest first)
   so --json can write the machine-readable BENCH_<experiment>.json
   report after the run. *)
let captured_tables : Obs.Json.t list ref = ref []

let emit ~csv table =
  captured_tables := Obs.Table.to_json table :: !captured_tables;
  if csv then Obs.Table.print_csv Format.std_formatter table
  else begin
    Obs.Table.print Format.std_formatter table;
    if !chart_mode then Obs.Table.plot Format.std_formatter table
  end

(* ------------------------------------------------------------------ *)
(* Observability plumbing: --trace / --metrics / --json                *)

(* The abort breakdown and cycle totals of the BENCH_<experiment>.json
   report, read back out of the aggregate metrics registry. *)
let summary_of_metrics reg =
  let snap = Obs.Metrics.snapshot reg in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Obs.Metrics.Counter { total; _ }) -> total
    | _ -> 0
  in
  let hist name =
    match List.assoc_opt name snap with
    | Some (Obs.Metrics.Hist buckets) ->
        Obs.Json.List
          (List.map (fun (lo, n) -> Obs.Json.List [ Obs.Json.Int lo; Obs.Json.Int n ]) buckets)
    | _ -> Obs.Json.List []
  in
  let abort_reasons = [ "conflict"; "overflow"; "illegal"; "explicit"; "lock_held"; "spurious" ] in
  Obs.Json.Obj
    [
      ("commits", Obs.Json.Int (counter "htm.commits"));
      ( "aborts",
        Obs.Json.Obj
          (List.map (fun r -> (r, Obs.Json.Int (counter ("htm.aborts." ^ r)))) abort_reasons) );
      ("lock_fallbacks", Obs.Json.Int (counter "htm.fallbacks"));
      ( "cycles",
        Obs.Json.Obj
          [
            ("committed_total", Obs.Json.Int (counter "htm.commit_cycles_total"));
            ("commit_hist", hist "htm.commit_cycles");
            ("queue_wait_hist", hist "mem.queue_wait");
          ] );
      ( "mem",
        Obs.Json.Obj
          (List.map
             (fun n -> (n, Obs.Json.Int (counter ("mem." ^ n))))
             [ "reads"; "read_misses"; "writes"; "write_misses"; "atomics"; "allocs"; "frees" ])
      );
    ]

(* Same-labeled machines from different cells (or repeated cells) merge
   in canonical first-occurrence order, which keeps the forensics
   artifact byte-identical whatever --jobs did. *)
let merge_forensics fors =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, f) ->
      match Hashtbl.find_opt tbl name with
      | Some dst -> Obs.Forensics.absorb dst f
      | None ->
          Hashtbl.add tbl name f;
          order := name :: !order)
    fors;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* bench/3: the forensics artifact. Like bench/2 it carries only
   deterministic products — witnesses, conflict graphs and escalation
   timelines are virtual-time facts, so the file is byte-identical at
   any --jobs. *)
let forensics_json ~experiment ~duration ~seed machines =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "bench/3");
      ("experiment", Obs.Json.Str experiment);
      ( "params",
        Obs.Json.Obj
          [ ("duration", Obs.Json.Int duration); ("seed", Obs.Json.Int seed) ] );
      ( "machines",
        Obs.Json.List
          (List.map
             (fun (name, f) ->
               Obs.Json.Obj
                 [
                   ("machine", Obs.Json.Str name);
                   ("forensics", Obs.Forensics.to_json f);
                 ])
             machines) );
    ]

(* bench/2: adds deterministic run metadata (the canonical cell count).
   Wall-clock and --jobs deliberately never appear here — the artifact
   must be byte-identical whatever the pool did. *)
let bench_json ~experiment ~duration ~seed ~cells ~metrics =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "bench/2");
      ("experiment", Obs.Json.Str experiment);
      ( "params",
        Obs.Json.Obj
          [ ("duration", Obs.Json.Int duration); ("seed", Obs.Json.Int seed) ] );
      ( "run",
        Obs.Json.Obj
          [ ("cells", Obs.Json.Int cells); ("deterministic", Obs.Json.Bool true) ] );
      ("tables", Obs.Json.List (List.rev !captured_tables));
      ( "summary",
        match metrics with Some r -> summary_of_metrics r | None -> Obs.Json.Null );
    ]

(* Run one registry experiment with the requested sinks: a fresh aggregate
   registry per experiment (so `all --json` artifacts stay independent),
   the sweep executor under it, then the artifact files. *)
let run_experiment (e : Experiments.t) ~jobs ~duration ~seed ~csv ~json ~trace ~metrics
    ~forensics ~times =
  let tracer = match trace with None -> None | Some _ -> Some (Obs.Tracer.create ()) in
  let mreg = if json || metrics <> None then Some (Obs.Metrics.create ()) else None in
  captured_tables := [];
  let ctx =
    { Experiments.duration; seed; emit = emit ~csv; ppf = Format.std_formatter }
  in
  let fors = Experiments.run e ~jobs ~forensics ?tracer ?absorb_into:mreg ~times ctx in
  (* Trace health belongs in the registry too: a truncated trace (ring
     overflow) silently biases any analysis built on it, so the dropped
     count rides along with the other counters. *)
  (match (tracer, mreg) with
  | Some tr, Some r ->
      Obs.Metrics.incr ~by:(Obs.Tracer.recorded tr) (Obs.Metrics.counter r "tracer.recorded");
      Obs.Metrics.incr ~by:(Obs.Tracer.dropped tr) (Obs.Metrics.counter r "tracer.dropped")
  | _ -> ());
  (match (trace, tracer) with
  | Some file, Some tr ->
      Obs.Tracer.write_file tr file;
      pf "trace: %d events (%d dropped) -> %s@." (Obs.Tracer.recorded tr)
        (Obs.Tracer.dropped tr) file
  | _ -> ());
  if forensics then begin
    let merged = merge_forensics fors in
    List.iter
      (fun (name, f) ->
        pf "== Forensics: %s (%d witnesses, %d escalations) ==@." name
          (Obs.Forensics.count f) (Obs.Forensics.hop_count f);
        Obs.Forensics.print Format.std_formatter f)
      merged;
    let file = Printf.sprintf "BENCH_%s.forensics.json" e.name in
    Obs.Json.write_file file (forensics_json ~experiment:e.name ~duration ~seed merged);
    pf "forensics -> %s@." file
  end;
  (match (metrics, mreg) with
  | Some file, Some r ->
      Obs.Json.write_file file (Obs.Metrics.to_json r);
      pf "metrics -> %s@." file
  | _ -> ());
  if json then begin
    let file = Printf.sprintf "BENCH_%s.json" e.name in
    Obs.Json.write_file file
      (bench_json ~experiment:e.name ~duration ~seed
         ~cells:(Experiments.cell_count e ~duration ~seed)
         ~metrics:mreg);
    pf "bench report -> %s@." file
  end

(* CI settings: an eighth of the default window (floored) keeps every
   shape the tests encode while the whole `all` sweep stays in minutes. *)
let smoke_duration (e : Experiments.t) =
  if e.default_duration = 0 then 0 else max 50_000 (e.default_duration / 8)

let run_all ~jobs ~seed ~csv ~smoke ~json ~times =
  List.iter
    (fun (e : Experiments.t) ->
      let duration = if smoke then smoke_duration e else e.default_duration in
      run_experiment e ~jobs ~duration ~seed ~csv ~json ~trace:None ~metrics:None
        ~forensics:false ~times)
    Experiments.all

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let jobs_arg =
  let doc =
    "Run the experiment's independent cells on $(docv) domains. The output (tables and \
     artifacts) is byte-identical whatever $(docv) is; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let duration_arg default =
  let doc = "Measured window in virtual cycles (2000 cycles = 1 us)." in
  Arg.(value & opt int default & info [ "duration"; "d" ] ~doc)

let seed_arg = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~doc:"Experiment seed.")
let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.")

let chart_arg =
  Arg.(value & flag & info [ "chart" ] ~doc:"Also draw each table as an ASCII chart.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a virtual-time event trace of the run and write it to $(docv) as Chrome \
           trace_event JSON (open in Perfetto; read microseconds as simulated cycles). \
           Forces --jobs 1.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the aggregated metrics registry snapshot to $(docv) as JSON (includes \
           the runner.* per-cell wall-clock telemetry).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Also write BENCH_<experiment>.json: the printed tables plus the abort breakdown \
           and cycle totals, machine-readable.")

let forensics_arg =
  Arg.(
    value & flag
    & info [ "forensics" ]
        ~doc:
          "Capture conflict witnesses and escalation timelines, print the per-machine \
           diagnosis tables, and write BENCH_<experiment>.forensics.json. Witness capture \
           charges zero virtual cycles, so results are byte-identical with or without it.")

let times_arg =
  Arg.(
    value & flag
    & info [ "times" ]
        ~doc:"Print the per-cell wall-clock table after the run (never in artifacts).")

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"CI durations: an eighth of each experiment's default window (floor 50k cycles).")

let cmd_of_experiment (e : Experiments.t) =
  let action jobs duration seed csv chart trace metrics json forensics times =
    chart_mode := chart;
    run_experiment e ~jobs ~duration ~seed ~csv ~json ~trace ~metrics ~forensics ~times
  in
  Cmd.v
    (Cmd.info e.name ~doc:e.doc)
    Term.(
      const action $ jobs_arg $ duration_arg e.default_duration $ seed_arg $ csv_arg
      $ chart_arg $ trace_arg $ metrics_arg $ json_arg $ forensics_arg $ times_arg)

(* `bench doctor <experiment>`: the forensics pipeline as a first-class
   verb — rerun the experiment with witness capture on, print the
   diagnosis tables (who conflicts with whom, over which lines, owned by
   which region and allocation, and how transactions escalated), and
   write the bench/3 artifact. Equivalent to `<experiment> --forensics`
   minus the ordinary report plumbing flags. *)
let doctor_cmd =
  let exp_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (e : Experiments.t) -> (e.name, e)) Experiments.all))) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment to diagnose.")
  in
  let duration_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "duration"; "d" ]
          ~doc:"Measured window in virtual cycles (default: the experiment's own).")
  in
  let action (e : Experiments.t) jobs duration seed =
    let duration = match duration with Some d -> d | None -> e.default_duration in
    run_experiment e ~jobs ~duration ~seed ~csv:false ~json:false ~trace:None
      ~metrics:None ~forensics:true ~times:false
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "diagnose an experiment's contention: conflict witnesses, abort attribution, \
          hot-line ranking and escalation timelines; writes \
          BENCH_<experiment>.forensics.json")
    Term.(const action $ exp_arg $ jobs_arg $ duration_opt $ seed_arg)

let all_action jobs seed csv chart smoke json times =
  chart_mode := chart;
  run_all ~jobs ~seed ~csv ~smoke ~json ~times

let all_cmd =
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "run every figure and table (default); with --json, write one \
          BENCH_<experiment>.json per experiment")
    Term.(
      const all_action $ jobs_arg $ seed_arg $ csv_arg $ chart_arg $ smoke_arg $ json_arg
      $ times_arg)

let read_json_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Obs.Json.parse s

(* CI gate: parse artifact files with the strict in-repo JSON parser and
   fail loudly on the first invalid one. *)
let validate_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let action files =
    let ok = ref true in
    List.iter
      (fun file ->
        match read_json_file file with
        | Ok _ -> pf "%s: valid JSON@." file
        | Error e ->
            ok := false;
            pf "%s: INVALID: %s@." file e)
      files;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"check that artifact files are valid JSON (CI gate)")
    Term.(const action $ files)

(* The regression gate: compare two BENCH artifacts at the shape level
   (orderings, ratio bands, crossover positions) and exit 1 on any
   difference — absolute values may drift freely within the bands. *)
let diff_cmd =
  let old_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD") in
  let new_arg = Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW") in
  let order_tol_arg =
    Arg.(
      value
      & opt float Runner.Diff.default_order_tol
      & info [ "order-tol" ] ~docv:"T"
          ~doc:
            "Relative tie band: two values within $(docv) of each other make no ordering \
             claim.")
  in
  let ratio_tol_arg =
    Arg.(
      value
      & opt float Runner.Diff.default_ratio_tol
      & info [ "ratio-tol" ] ~docv:"R"
          ~doc:"Allowed per-cell drift band: new/old must stay within [1/$(docv), $(docv)].")
  in
  let action old_f new_f order_tol ratio_tol =
    let read f =
      match read_json_file f with
      | Ok j -> j
      | Error e ->
          pf "%s: INVALID: %s@." f e;
          exit 2
    in
    let r =
      Runner.Diff.diff ~order_tol ~ratio_tol ~old_artifact:(read old_f)
        ~new_artifact:(read new_f) ()
    in
    Runner.Diff.print Format.std_formatter r;
    if Runner.Diff.has_regression r then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "shape-compare two BENCH artifacts (orderings, ratios, crossovers); exit 1 on \
          regression (CI gate)")
    Term.(const action $ old_arg $ new_arg $ order_tol_arg $ ratio_tol_arg)

let () =
  let default =
    Term.(
      const all_action $ jobs_arg $ seed_arg $ csv_arg $ chart_arg $ smoke_arg $ json_arg
      $ times_arg)
  in
  let info =
    Cmd.info "bench" ~doc:"Reproduce the tables and figures of Dragojevic et al., PODC 2011"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          (all_cmd :: doctor_cmd :: validate_cmd :: diff_cmd
          :: List.map cmd_of_experiment Experiments.all)))
