(* The simulator cost benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload's cells round after round for S seconds in this
   process (one domain; simulated threads are fibers), rotating through
   seeds derived from N. With --trace 0 the last line is the end-to-end
   metrics; with --trace 1
   it is the per-layer metrics: traced rounds (spans and counters around
   every layer call), the layer ladder, the observer-sink rows and the
   accounting check. The last line is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}. *)

let end_to_end =
  [ ("wall_s", "s"); ("sim_maccess_per_s", "M/s"); ("setup_s", "s"); ("host_heap_mb", "MB");
    ("vops_per_us", "ops/us") ]

let per_layer =
  [ ("sim.switches", "count"); ("sim.switches_per_access", "ratio");
    ("simmem.accesses", "count"); ("simmem.miss_frac", "ratio");
    ("simmem.remote_frees", "count"); ("simmem.create_ms", "ms") ]
  @ List.map (fun n -> (n, "ns")) Ladder.names
  @ [ ("htm.attempts", "count"); ("htm.useful_frac", "ratio"); ("stm.attempts", "count");
      ("stm.useful_frac", "ratio"); ("gc.minor_words_per_access", "words");
      ("span.setup_ms", "ms"); ("span.run_ms", "ms"); ("span.teardown_ms", "ms");
      ("trace.overhead_frac", "ratio"); ("accounted_frac", "ratio");
      ("unexplained_ms", "ms") ]
  @ List.map (fun n -> (n, "ratio")) Sinks.names
  @ [ ("failed_frac", "ratio") ]

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let pf = Printf.printf
let median = Ladder.median
let ms ns = float_of_int ns /. 1e6

(* Rounds rotate through [subseeds] seeds derived from --seed, so one
   run's medians average over several schedules instead of resting on
   one; each repeat of a sub-seed must reproduce its first digest. *)
let subseeds = 8
let seed_of sub = Hashtbl.hash (!seed, sub)

type round = {
  sub : int;
  outcomes : Cells.outcome list;
  digest : string;
  total_ns : int;  (** the whole round: setup, run and teardown *)
}

let sum_ns f r = List.fold_left (fun acc o -> acc + f o) 0 r.outcomes
let setup_ns = sum_ns (fun o -> o.setup_ns)
let run_ns = sum_ns (fun o -> o.run_ns)
let failures r = List.length (List.filter (fun o -> Result.is_error o.Cells.result) r.outcomes)
let totals r = List.fold_left (fun acc o -> Probe.add acc o.Cells.run_delta) Probe.zero r.outcomes

let vops r =
  List.fold_left
    (fun acc o -> match o.Cells.result with Ok x -> acc +. x.Cells.vops | Error _ -> acc)
    0. r.outcomes

let run_round (w : Cells.workload) p ~sub =
  let t0 = Probe.now_ns () in
  let outcomes = List.map (fun spec -> Cells.run_cell p spec ~seed:(seed_of sub)) w.cells in
  let total_ns = Probe.now_ns () - t0 in
  p.Probe.round <- p.round + 1;
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun o -> o.Cells.digest) outcomes)))
  in
  { sub; outcomes; digest; total_ns }

let next_sub =
  let next = ref 0 in
  fun () ->
    let sub = !next in
    next := (sub + 1) mod subseeds;
    sub

(* Rounds until [budget_s] has passed and at least [min] were run. *)
let rounds_for ~budget_s ~min run =
  let t0 = Probe.now_ns () in
  let rec go acc n =
    if n >= min && float_of_int (Probe.now_ns () - t0) /. 1e9 >= budget_s then List.rev acc
    else go (run () :: acc) (n + 1)
  in
  go [] 0

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Count failed cells, and rounds whose cells all passed but which did
   not reproduce the first passing round of their sub-seed. Returns
   those first rounds too: the references the metrics are read from. *)
let verdict rounds =
  let refs = Array.make subseeds None in
  let drifted = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun (o : Cells.outcome) ->
          match o.result with
          | Error msg -> pf "FAILED %s seed %d: %s\n" o.spec.label (seed_of r.sub) msg
          | Ok _ -> ())
        r.outcomes;
      if failures r = 0 then
        match refs.(r.sub) with
        | None -> refs.(r.sub) <- Some r
        | Some first -> if first.digest <> r.digest then incr drifted)
    rounds;
  if !drifted > 0 then pf "FAILED: %d rounds did not reproduce their digest\n" !drifted;
  let attempted = List.fold_left (fun a r -> a + List.length r.outcomes) 0 rounds in
  let failed = List.fold_left (fun a r -> a + failures r) 0 rounds + !drifted in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat " "
            (Array.to_list (Array.map (function Some r -> r.digest | None -> "") refs))))
  in
  (attempted, failed, List.filter_map Fun.id (Array.to_list refs), digest)

let print_cells r =
  pf "cells of sub-seed %d (seed %d):\n" r.sub (seed_of r.sub);
  pf "%-28s %10s %9s %10s %11s %9s %9s\n" "cell" "ops" "ops/us" "switches" "accesses"
    "setup ms" "run ms";
  List.iter
    (fun (o : Cells.outcome) ->
      let ops, v = match o.result with Ok x -> (x.ops, x.vops) | Error _ -> (0, 0.) in
      pf "%-28s %10d %9.4f %10d %11d %9.3f %9.3f\n" o.spec.label ops v o.run_delta.switches
        (Probe.accesses o.run_delta) (ms o.setup_ns) (ms o.run_ns))
    r.outcomes

let print_result ~attempted ~failed metrics =
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let units = end_to_end @ per_layer in
  let body =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (value v) (List.assoc name units))
      metrics
  in
  List.iter (fun (name, v) -> pf "  %-48s %16.6f %s\n" name v (List.assoc name units)) metrics;
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failed = 0)
    attempted failed (String.concat ", " body)

let end_to_end_run w =
  let p = Probe.create ~tracing:false in
  let round () = run_round w p ~sub:(next_sub ()) in
  let t0 = Probe.now_ns () in
  let warm = round () in
  (* The peak heap is read after a fixed number of rounds: allocation is
     deterministic, while how many rounds fit in the budget is not. *)
  let early = List.init 2 (fun _ -> round ()) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let elapsed = float_of_int (Probe.now_ns () - t0) /. 1e9 in
  (* At least two measured rounds of every sub-seed. *)
  let rounds =
    early @ rounds_for ~budget_s:(!seconds -. elapsed) ~min:((2 * subseeds) - 2) round
  in
  let attempted, failed, refs, digest = verdict (warm :: rounds) in
  (* Times are each sub-seed's fastest repeat, in ns. The host alternates
     between a fast and a slow speed in phases of seconds, and the share
     of fast rounds varies from run to run, so any quantile over all
     rounds jumps between the two speeds while the fastest repeat stays on
     the fast one (NOTES.md). Sub-seeds differ in work, so the minimum is
     taken per sub-seed and then averaged. *)
  let subs = List.sort_uniq Int.compare (List.map (fun r -> r.sub) rounds) in
  let of_sub sub = List.filter (fun r -> r.sub = sub) rounds in
  let fastest f =
    List.map (fun sub -> List.fold_left (fun m r -> min m (f r)) max_int (of_sub sub)) subs
  in
  let mean_s ns = mean (List.map (fun ns -> float_of_int ns /. 1e9) ns) in
  let fastest_run = fastest run_ns in
  let wall_s = mean_s fastest_run in
  (* Access counts are deterministic per sub-seed. *)
  let accesses =
    mean (List.map (fun sub -> float_of_int (Probe.accesses (totals (List.hd (of_sub sub))))) subs)
  in
  let run_ms = List.map (fun r -> ms (run_ns r)) rounds in
  let q f = Ladder.quantile f run_ms in
  print_cells warm;
  pf "digest %s %s\n" w.name digest;
  pf "rounds %d measured after 1 warm-up, %d sub-seeds; failed_frac %g\n" (List.length rounds)
    subseeds (ratio failed attempted);
  pf "Sim.run ms per round: min %.3f  p25 %.3f  median %.3f  p75 %.3f  max %.3f\n" (q 0.)
    (q 0.25) (q 0.5) (q 0.75) (q 1.);
  pf "Sim.run ms, fastest repeat per sub-seed: %s\n"
    (String.concat " " (List.map (fun ns -> Printf.sprintf "%.3f" (ms ns)) fastest_run));
  print_result ~attempted ~failed
    [ ("wall_s", wall_s); ("sim_maccess_per_s", accesses /. wall_s /. 1e6);
      ("setup_s", mean_s (fastest setup_ns));
      ("host_heap_mb", heap_mb); ("vops_per_us", mean (List.map vops refs)) ]

(* Self time of each span name, summed over the traced rounds. Every
   span is a leaf under its cell, so self time is its duration; the
   cell's own self time is the round's time outside any span. *)
let print_spans spans rounds =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Probe.span) ->
      let n, t = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl s.sp_name) in
      Hashtbl.replace tbl s.sp_name (n + 1, t + s.sp_dur))
    spans;
  let covered = List.fold_left (fun a (s : Probe.span) -> a + s.sp_dur) 0 spans in
  let total = List.fold_left (fun a r -> a + r.total_ns) 0 rounds in
  pf "span self times over %d traced rounds:\n" (List.length rounds);
  List.iter
    (fun name ->
      match Hashtbl.find_opt tbl name with
      | Some (n, t) -> pf "  %-10s %6d spans %12.3f ms\n" name n (ms t)
      | None -> ())
    [ "machine"; "make"; "prefill"; "run"; "check"; "destroy" ];
  pf "  %-10s %19s %12.3f ms\n" "(cell)" "" (ms (total - covered))

(* The spans, as a Chrome trace under perfbench/out. *)
let write_spans spans =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed) in
  Obs.Json.write_file file (Probe.to_json spans);
  pf "spans -> %s\n" file

(* Ladder cost times event count for each cell of a round. Transaction
   rungs are charged net of the accesses they count, which the access
   rungs already price. *)
let accounting (ladder : (string * Ladder.cost) list) r =
  let ns name = (List.assoc name ladder).Ladder.ns in
  let access_ns (d : Probe.counters) ~buffered =
    (float_of_int d.reads *. ns "simmem.ns_per_read")
    +. (float_of_int d.writes
       *. ns (if buffered then "simmem.ns_per_drained_store" else "simmem.ns_per_write"))
    +. (float_of_int d.atomics *. ns "simmem.ns_per_cas")
  in
  let net name =
    let c = List.assoc name ladder in
    Float.max 0. (c.ns -. (access_ns c.delta ~buffered:false /. float_of_int (max 1 c.events)))
  in
  let cell (o : Cells.outcome) =
    let d = o.run_delta and s = o.spec in
    let width = if s.threads <= 2 then 2 else if s.threads <= 16 then 16 else 256 in
    let alloc = if s.arena then "arena" else "shared-lifo" in
    [ ("switches", float_of_int d.switches *. ns (Printf.sprintf "sim.ns_per_switch.w%d" width));
      ("accesses", access_ns d ~buffered:s.buffered);
      ( "malloc/free",
        float_of_int (d.allocs + d.frees) /. 2. *. ns ("simmem.ns_per_malloc_free." ^ alloc) );
      ("htm tx", float_of_int d.hw_attempts *. net "htm.ns_per_tx.r1w1");
      ("stm tx", float_of_int d.stm_attempts *. net "stm.ns_per_tx.w48") ]
  in
  List.fold_left
    (fun acc o -> List.map2 (fun (n, a) (_, b) -> (n, a +. b)) acc (cell o))
    (List.map (fun (n, _) -> (n, 0.)) (cell (List.hd r.outcomes)))
    r.outcomes

let per_layer_run w =
  let budget = !seconds in
  let bare = Probe.create ~tracing:false and traced = Probe.create ~tracing:true in
  let warm = run_round w bare ~sub:(next_sub ()) in
  (* Traced and untraced rounds of one sub-seed alternate over two fifths
     of the budget, covering every sub-seed. *)
  let pairs =
    rounds_for ~budget_s:(0.4 *. budget) ~min:subseeds (fun () ->
        let sub = next_sub () in
        let t = run_round w traced ~sub in
        (t, run_round w bare ~sub))
  in
  let traced_rounds = List.map fst pairs and bare_rounds = List.map snd pairs in
  let rung_budget = 0.4 *. budget /. float_of_int (List.length Ladder.rungs) in
  let ladder =
    List.map
      (fun (r : Ladder.rung) -> (r.name, Ladder.measure ~budget_s:rung_budget r))
      Ladder.rungs
  in
  let sinks = Sinks.measure ~budget_s:(0.2 *. budget) ~seed:(seed_of 0) in
  let attempted, failed, refs, digest = verdict ((warm :: traced_rounds) @ bare_rounds) in
  let attempted = attempted + sinks.attempted and failed = failed + sinks.failed in
  let spans = traced.spans in
  (* Counts are deterministic per sub-seed: mean over the references. *)
  let count f = mean (List.map (fun r -> float_of_int (f (totals r))) refs) in
  let frac f g = mean (List.map (fun r -> ratio (f (totals r)) (g (totals r))) refs) in
  (* Medians over traced rounds of span time, per round or per cell. *)
  let span_ms names =
    median
      (List.init (List.length traced_rounds) (fun round ->
           ms
             (List.fold_left
                (fun a (s : Probe.span) ->
                  if s.sp_round = round && List.mem s.sp_name names then a + s.sp_dur else a)
                0 spans)))
  in
  let per_cell names = span_ms names /. float_of_int (List.length w.cells) in
  let terms = List.map (fun r -> (r, accounting ladder r)) traced_rounds in
  let explained (r, t) = (List.fold_left (fun a (_, v) -> a +. v) 0. t, float_of_int (run_ns r)) in
  let total_ms rs = median (List.map (fun r -> float_of_int r.total_ns) rs) in
  print_cells warm;
  pf "digest %s %s\n" w.name digest;
  print_spans spans traced_rounds;
  pf "accounting, mean over traced rounds (ladder cost x event count):\n";
  List.iter
    (fun (n, _) ->
      pf "  %-12s %10.3f ms\n" n (mean (List.map (fun (_, t) -> List.assoc n t /. 1e6) terms)))
    (snd (List.hd terms));
  pf "  %-12s %10.3f ms of %.3f ms of Sim.run\n" "unexplained"
    (mean (List.map (fun x -> let e, run = explained x in (run -. e) /. 1e6) terms))
    (mean (List.map (fun r -> ms (run_ns r)) traced_rounds));
  write_spans spans;
  print_result ~attempted ~failed
    ([ ("sim.switches", count (fun c -> c.switches));
       ("sim.switches_per_access", frac (fun c -> c.switches) Probe.accesses);
       ("simmem.accesses", count Probe.accesses);
       ( "simmem.miss_frac",
         frac (fun c -> c.read_misses + c.write_misses) (fun c -> c.reads + c.writes) );
       ("simmem.remote_frees", count (fun c -> c.remote_frees));
       ("simmem.create_ms", span_ms [ "machine" ]) ]
    @ List.map (fun (n, (cost : Ladder.cost)) -> (n, cost.ns)) ladder
    @ [ ("htm.attempts", count (fun c -> c.hw_attempts));
        ("htm.useful_frac", frac (fun c -> c.hw_commits) (fun c -> c.hw_attempts));
        ("stm.attempts", count (fun c -> c.stm_attempts));
        ("stm.useful_frac", frac (fun c -> c.stm_commits) (fun c -> c.stm_attempts));
        ( "gc.minor_words_per_access",
          mean
            (List.map
               (fun r ->
                 let c = totals r in
                 c.minor_words /. float_of_int (max 1 (Probe.accesses c)))
               refs) );
        ("span.setup_ms", per_cell [ "machine"; "make"; "prefill" ]);
        ("span.run_ms", per_cell [ "run" ]);
        ("span.teardown_ms", per_cell [ "check"; "destroy" ]);
        ("trace.overhead_frac", (total_ms traced_rounds /. total_ms bare_rounds) -. 1.);
        ("accounted_frac", median (List.map (fun x -> let e, run = explained x in e /. run) terms));
        ( "unexplained_ms",
          median (List.map (fun x -> let e, run = explained x in (run -. e) /. 1e6) terms) ) ]
    @ sinks.overheads
    @ [ ("failed_frac", ratio failed attempted) ])

let () =
  match Cells.find !workload with
  | None ->
      prerr_endline
        (Printf.sprintf "unknown workload %S; one of: %s" !workload
           (String.concat ", " (List.map (fun (w : Cells.workload) -> w.name) Cells.workloads)));
      exit 2
  | Some w -> if !trace = 0 then end_to_end_run w else per_layer_run w
