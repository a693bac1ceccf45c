(* Schedule-exploration CLI.

     dune exec bin/explore.exe -- search --budget 2000
     dune exec bin/explore.exe -- search --scenarios broken-rop --out _explore
     dune exec bin/explore.exe -- replay _explore/broken-rop-1.trace
     dune exec bin/explore.exe -- workload -a ArrayDynAppendDereg -t 8
     dune exec bin/explore.exe -- list

   [search] runs the systematic explorer (lib/explore) over a scenario
   set and exits nonzero iff a violation was found, writing each shrunken
   failure as a replayable artifact file. [replay] re-executes such a
   file deterministically. [workload] is the interactive single-algorithm
   throughput explorer. *)

let err fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* ------------------------------------------------------------------ *)
(* search                                                             *)

let sanitize key =
  String.map (fun c -> match c with ':' | '+' | '/' | ' ' -> '-' | c -> c) key

let resolve_scenarios spec ~model ~threads ~ops =
  match spec with
  | "queues" -> Ok (Explore.Scenario.queues ~model ~threads ~ops ())
  | "collects" -> Ok (Explore.Scenario.collects ~model ~threads ~ops ())
  | "all" ->
    Ok
      (Explore.Scenario.queues ~model ~threads ~ops ()
      @ Explore.Scenario.collects ~model ~threads ~ops ())
  | keys ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | key :: tl -> (
        match Explore.Scenario.build ~key ~model ~threads ~ops () with
        | Ok scn -> go (scn :: acc) tl
        | Error e -> Error e)
    in
    go [] (String.split_on_char ',' keys)

let run_search jobs budget scenarios model threads ops seed with_faults max_violations out
    =
  match Sim.Memmodel.of_string model with
  | None ->
    err "explore search: unknown memory model %S (expected %s)" model
      (String.concat ", " (List.map fst Sim.Memmodel.all));
    1
  | Some model -> (
  match resolve_scenarios scenarios ~model ~threads ~ops with
  | Error e ->
    err "explore search: %s" e;
    1
  | Ok scns ->
    Printf.printf "searching %d schedules over %d scenario(s), base seed %d%s%s%s\n%!"
      budget (List.length scns) seed
      (if with_faults then ", fault rounds on" else "")
      (if jobs > 1 then Printf.sprintf ", %d domains" jobs else "")
      (if model = Sim.Memmodel.sc then ""
       else Printf.sprintf ", memory model %s" (Sim.Memmodel.to_string model));
    let summary =
      Explore.Search.search_sharded ~jobs ~base_seed:seed ~with_faults ~max_violations
        ~log:print_endline ~budget scns
    in
    Printf.printf "ran %d schedules: %d passed, %d violation(s)\n%!"
      summary.res_runs summary.res_passed
      (List.length summary.res_violations);
    if summary.res_violations = [] then 0
    else begin
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      List.iter
        (fun (v : Explore.Search.violation) ->
          let a = v.vio_artifact in
          let path =
            Filename.concat out
              (Printf.sprintf "%s-%d.trace" (sanitize a.art_scenario) a.art_seed)
          in
          Explore.Artifact.save path a;
          Printf.printf "  %s: %s\n    %d deviation(s), artifact %s\n%!" a.art_scenario
            a.art_message
            (List.length a.art_deviations)
            path)
        summary.res_violations;
      1
    end)

(* ------------------------------------------------------------------ *)
(* replay                                                             *)

let run_replay file show_trace =
  match Explore.Artifact.load file with
  | Error e ->
    err "explore replay: %s" e;
    1
  | Ok a -> (
    Printf.printf "replaying %s: %d threads x %d ops, seed %d, %d deviation(s)\n%!"
      a.art_scenario a.art_threads a.art_ops a.art_seed
      (List.length a.art_deviations);
    let tr = if show_trace then Some (Explore.Trace.create ()) else None in
    match Explore.Search.replay_artifact ?trace:tr a with
    | Error e ->
      err "explore replay: %s" e;
      1
    | Ok outcome ->
      (match tr with
      | Some tr -> List.iter print_endline (Explore.Trace.lines tr)
      | None -> ());
      (match outcome with
      | Explore.Scenario.Fail msg ->
        Printf.printf "reproduced: %s\n" msg;
        0
      | Explore.Scenario.Pass ->
        Printf.printf "did NOT reproduce: scenario passed\n";
        2))

(* ------------------------------------------------------------------ *)
(* trace: replay an artifact into a Chrome trace_event file            *)

let run_trace file out =
  match Explore.Artifact.load file with
  | Error e ->
    err "explore trace: %s" e;
    1
  | Ok a -> (
    let tracer = Obs.Tracer.create () in
    let sink = Obs.Tracer.process tracer ~name:a.art_scenario in
    match Explore.Search.replay_artifact ~tracer:sink a with
    | Error e ->
      err "explore trace: %s" e;
      1
    | Ok outcome ->
      Obs.Tracer.write_file tracer out;
      Printf.printf "trace: %d events (%d dropped) -> %s\n%!"
        (Obs.Tracer.recorded tracer) (Obs.Tracer.dropped tracer) out;
      (match outcome with
      | Explore.Scenario.Fail msg ->
        Printf.printf "reproduced: %s\n" msg;
        0
      | Explore.Scenario.Pass ->
        Printf.printf "did NOT reproduce: scenario passed\n";
        2))

(* ------------------------------------------------------------------ *)
(* workload (the original interactive explorer)                       *)

let list_algorithms () =
  Obs.Table.print_cols Format.std_formatter
    [ "algorithm"; "dynamic"; "htm"; "update class" ]
    (List.map
       (fun (m : Collect.Intf.maker) ->
         [ m.algo_name; string_of_bool m.solves_dynamic; string_of_bool m.uses_htm;
           (if m.direct_update then "direct (naked store)" else "indirect (transaction)") ])
       Collect.all_with_extensions);
  Format.printf "@.";
  Obs.Table.print_cols Format.std_formatter
    [ "scenario key"; "oracle" ]
    (List.map
       (fun (key, oracle) -> [ key; oracle ])
       ([ ("racy", "final counter value (seeded known-bad)");
          ("broken-rop", "linearizability (seeded known-bad queue)");
          ("ms-nofence", "linearizability (fence-dropping mutant; run with --model sb)");
          ("htm-memorder", "linearizability (HTM queue; clean under every --model)");
          ("stm-queue", "linearizability (HTM queue forced onto the STM path)");
          ("stm-collect", "Dynamic Collect spec (ListFastCollect on the STM path)") ]
       @ List.map
           (fun (m : Hqueue.Intf.maker) -> ("queue:" ^ m.queue_name, "linearizability"))
           Hqueue.all_with_extensions
       @ List.map
           (fun (m : Collect.Intf.maker) ->
             ("collect:" ^ m.algo_name, "Dynamic Collect specification"))
           Collect.all_with_extensions))

type op = Op_collect | Op_update | Op_register | Op_deregister

let op_name = function
  | Op_collect -> "collect"
  | Op_update -> "update"
  | Op_register -> "register"
  | Op_deregister -> "deregister"

let parse_mix s =
  match String.split_on_char ',' s |> List.map int_of_string with
  | [ c; u; r; d ] when c + u + r + d = 100 && c >= 0 && u >= 0 && r >= 0 && d >= 0 ->
    (c, u, r, d)
  | _ -> failwith "mix must be four comma-separated percentages summing to 100"
  | exception _ -> failwith "mix must be four comma-separated percentages summing to 100"

let parse_step = function
  | "adaptive" -> Collect.Intf.Adaptive
  | s ->
    (match int_of_string_opt s with
     | Some n when n >= 1 -> Collect.Intf.Fixed n
     | Some _ | None -> failwith "step must be a positive integer or 'adaptive'")

let run_workload algo threads mix step duration budget seed =
  let collect_pct, update_pct, register_pct, _ = parse_mix mix in
  let maker =
    match Collect.find_maker algo with
    | Some m -> m
    | None ->
      Format.eprintf "unknown algorithm %S; try the list subcommand@." algo;
      exit 1
  in
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot ~seed () in
  let cfg =
    { Collect.Intf.max_slots = budget; num_threads = threads; step = parse_step step;
      min_size = 4 }
  in
  let inst = maker.make htm boot cfg in
  let per_thread = max 1 (budget / threads) in
  let op_counts = Hashtbl.create 4 in
  let bump op = Hashtbl.replace op_counts op (1 + Option.value ~default:0 (Hashtbl.find_opt op_counts op)) in
  let values_seen = ref 0 in
  let body _i ctx =
    let mine = Queue.create () in
    let buf = Sim.Ibuf.create () in
    let rng = Sim.rng ctx in
    for _ = 1 to per_thread / 2 do
      Queue.add (inst.register ctx (Workload.Driver.fresh_value ())) mine
    done;
    while Sim.clock ctx < duration do
      Workload.Driver.tick_dispatch ctx;
      let dice = Sim.Rng.int rng 100 in
      if dice < collect_pct then begin
        Sim.Ibuf.clear buf;
        inst.collect ctx buf;
        values_seen := !values_seen + Sim.Ibuf.length buf;
        bump Op_collect
      end
      else if dice < collect_pct + update_pct then begin
        if not (Queue.is_empty mine) then begin
          let h = Queue.pop mine in
          inst.update ctx h (Workload.Driver.fresh_value ());
          Queue.add h mine;
          bump Op_update
        end
      end
      else if dice < collect_pct + update_pct + register_pct then begin
        if Queue.length mine < per_thread then begin
          Queue.add (inst.register ctx (Workload.Driver.fresh_value ())) mine;
          bump Op_register
        end
      end
      else if not (Queue.is_empty mine) then begin
        inst.deregister ctx (Queue.pop mine);
        bump Op_deregister
      end
    done;
    Queue.iter (fun h -> inst.deregister ctx h) mine
  in
  Sim.run ~seed (Array.init threads (fun i -> body i));
  let total = Hashtbl.fold (fun _ n acc -> acc + n) op_counts 0 in
  Format.printf "== %s: %d threads, mix %s, %d cycles, seed %d ==@.@." algo threads mix
    duration seed;
  Format.printf "total throughput: %.3f ops/us (%d ops)@."
    (Workload.Driver.ops_per_us ~ops:total ~duration)
    total;
  List.iter
    (fun op ->
      let n = Option.value ~default:0 (Hashtbl.find_opt op_counts op) in
      Format.printf "  %-12s %8d@." (op_name op) n)
    [ Op_collect; Op_update; Op_register; Op_deregister ];
  let collects = Option.value ~default:0 (Hashtbl.find_opt op_counts Op_collect) in
  if collects > 0 then
    Format.printf "  avg values per collect: %.1f@."
      (float_of_int !values_seen /. float_of_int collects);
  let st = Htm.stats htm in
  Format.printf "@.HTM: %d commits; aborts: %d conflict, %d overflow, %d illegal, %d explicit; %d lock fallbacks@."
    st.commits st.aborts_conflict st.aborts_overflow st.aborts_illegal st.aborts_explicit
    st.lock_fallbacks;
  (match inst.step_histogram () with
   | [] -> ()
   | hist ->
     Format.printf "telescoping: %s@."
       (String.concat "  "
          (List.map (fun (s, n) -> Printf.sprintf "step%d:%d" s n) hist)));
  let ms = Simmem.stats mem in
  Format.printf "memory: %d words live, peak %d, %d allocs / %d frees@." ms.live_words
    ms.peak_live_words ms.total_allocs ms.total_frees;
  Format.printf
    "accesses: %d loads (%.1f%% miss), %d stores (%.1f%% miss), %d atomics@."
    ms.reads
    (100.0 *. float_of_int ms.read_misses /. float_of_int (max 1 ms.reads))
    ms.writes
    (100.0 *. float_of_int ms.write_misses /. float_of_int (max 1 ms.writes))
    ms.atomics;
  inst.destroy boot;
  Format.printf "after destroy: %d words live@." (Simmem.stats mem).live_words;
  0

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                    *)

open Cmdliner

let search_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Shard the schedule budget across $(docv) domains. The explored run set is \
             identical whatever $(docv) is (contiguous ranges of the same seed sequence).")
  in
  let budget =
    Arg.(value & opt int 2000 & info [ "budget" ] ~doc:"Schedules to run in total.")
  in
  let scenarios =
    Arg.(value & opt string "queues"
         & info [ "scenarios" ]
             ~doc:"$(b,queues), $(b,collects), $(b,all), or comma-separated scenario \
                   keys (see the list subcommand).")
  in
  let model =
    Arg.(
      value & opt string "sc"
      & info [ "model" ]
          ~doc:
            "Memory-consistency variant: $(b,sc) (default), $(b,sb) (TSO store \
             buffers), $(b,sb-bypass) (no store-to-load forwarding), or \
             $(b,sb-fence-nop) (fences drain nothing). See docs/MEMORY_ORDERING.md.")
  in
  let threads = Arg.(value & opt int 3 & info [ "t"; "threads" ] ~doc:"Simulated threads.") in
  let ops = Arg.(value & opt int 5 & info [ "ops" ] ~doc:"Operations per thread.") in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Base seed.") in
  let faults =
    Arg.(value & flag & info [ "faults" ] ~doc:"Add stall/spurious-abort fault rounds.")
  in
  let max_violations =
    Arg.(value & opt int 3 & info [ "max-violations" ] ~doc:"Stop after this many.")
  in
  let out =
    Arg.(value & opt string "_explore" & info [ "out" ] ~doc:"Artifact output directory.")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Systematically explore schedules; exit 1 iff a violation was found")
    Term.(const run_search $ jobs $ budget $ scenarios $ model $ threads $ ops $ seed
          $ faults $ max_violations $ out)

let replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ARTIFACT" ~doc:"Artifact file.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the captured interleaving.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Deterministically re-run a failure artifact; exit 0 iff it reproduces")
    Term.(const run_replay $ file $ trace)

let workload_cmd =
  let algo =
    Arg.(value & opt string "ArrayDynAppendDereg"
         & info [ "a"; "algo" ] ~doc:"Algorithm name (see the list subcommand).")
  in
  let threads = Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Simulated threads.") in
  let mix =
    Arg.(value & opt string "80,10,5,5"
         & info [ "m"; "mix" ] ~doc:"collect,update,register,deregister percentages.")
  in
  let step =
    Arg.(value & opt string "32" & info [ "step" ] ~doc:"Telescoping step: N or 'adaptive'.")
  in
  let duration =
    Arg.(value & opt int 400_000 & info [ "d"; "duration" ] ~doc:"Virtual cycles to run.")
  in
  let budget = Arg.(value & opt int 64 & info [ "budget" ] ~doc:"Total handle budget.") in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Run one Dynamic Collect algorithm under a custom workload and report stats")
    Term.(const run_workload $ algo $ threads $ mix $ step $ duration $ budget $ seed)

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ARTIFACT" ~doc:"Artifact file.")
  in
  let out =
    Arg.(value & opt string "explore-trace.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Chrome trace_event output file (open in Perfetto).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a failure artifact and write its virtual-time timeline as Chrome \
             trace JSON; exit 0 iff it reproduces")
    Term.(const run_trace $ file $ out)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List collect algorithms and explorable scenario keys")
    Term.(const (fun () -> list_algorithms (); 0) $ const ())

let () =
  let info =
    Cmd.info "explore"
      ~doc:"Schedule exploration and workload probing over the simulated machine"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ search_cmd; replay_cmd; trace_cmd; workload_cmd; list_cmd ]))
