(* Tests for the observability layer (lib/obs) and its wiring into the
   simulator: JSON printer/parser round-trips, the metrics registry
   (parent mirroring, local-only resets), the tracer ring buffer, the
   contention profiler's region attribution — and the two system-level
   guarantees: tracing is deterministic (same seed + strategy gives a
   byte-identical trace file) and free (a traced run is cycle-for-cycle
   identical to an untraced one). *)

let contains s affix = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let sample_json =
  Obs.Json.(
    Obj
      [
        ("name", Str "x\"y\n");
        ("n", Int (-42));
        ("f", Float 1.5);
        ("ok", Bool true);
        ("nothing", Null);
        ("xs", List [ Int 1; Int 2; Int 3 ]);
        ("empty", Obj []);
      ])

let test_json_roundtrip () =
  let s = Obs.Json.to_string sample_json in
  (match Obs.Json.parse s with
  | Ok v -> Alcotest.(check bool) "compact round-trips" true (v = sample_json)
  | Error e -> Alcotest.failf "parse of compact output failed: %s" e);
  let p = Obs.Json.pretty_to_string sample_json in
  match Obs.Json.parse p with
  | Ok v -> Alcotest.(check bool) "pretty round-trips" true (v = sample_json)
  | Error e -> Alcotest.failf "parse of pretty output failed: %s" e

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "parser accepted %S" bad
      | Error _ -> ())
    [ "{"; "tru"; "[1,]"; "{\"a\":1} x"; ""; "\"unterminated"; "{'a':1}" ]

(* Property: print -> parse is the identity on arbitrary documents.
   Floats print through %.12g, so the generator sticks to dyadic
   rationals with few significant digits — the only floats whose decimal
   rendering is exact at that precision (BENCH artifacts only ever carry
   measured throughputs, where shape comparison tolerates the last-digit
   rounding; the *structural* round-trip is what must be exact). *)
let json_gen =
  let open QCheck.Gen in
  let exact_float =
    map2
      (fun m k -> float_of_int m /. float_of_int (1 lsl k))
      (int_range (-9999) 9999) (int_range 0 8)
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Obs.Json.Float f) exact_float;
        map (fun s -> Obs.Json.Str s) (string_size ~gen:printable (int_bound 10));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Obs.Json.List l)
                  (list_size (int_bound 4) (self (n / 2)));
                map (fun kvs -> Obs.Json.Obj kvs)
                  (list_size (int_bound 4) (pair key (self (n / 2))));
              ])
        (min n 6))

let test_json_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"print -> parse = id"
       (QCheck.make json_gen)
       (fun v ->
         match Obs.Json.parse (Obs.Json.to_string v) with
         | Ok v' -> v' = v
         | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Table rendering: golden outputs, pinned byte for byte.              *)

let golden_table : Obs.Table.table =
  {
    title = "Golden";
    xlabel = "x";
    unit = "ops/us";
    columns = [ "A"; "B" ];
    rows = [ ("1", [ Some 0.5; Some 1234.0 ]); ("2", [ Some 12.5; None ]) ];
  }

let test_table_print_golden () =
  let rendered = Format.asprintf "%a" Obs.Table.print golden_table in
  let expected =
    String.concat "\n"
      [
        "== Golden [ops/us] ==";
        "x  A      B     ";
        "1  0.500  1234  ";
        "2  12.5   -     ";
        "";
        "";
      ]
  in
  Alcotest.(check string) "aligned table renders exactly" expected rendered

let test_table_csv_golden () =
  let rendered = Format.asprintf "%a" Obs.Table.print_csv golden_table in
  let expected =
    String.concat "\n"
      [
        "# Golden [ops/us]"; "x,A,B"; "1,0.500000,1234.000000"; "2,12.500000,"; ""; "";
      ]
  in
  Alcotest.(check string) "CSV renders exactly" expected rendered

let test_table_json_roundtrip () =
  match Obs.Table.of_json (Obs.Table.to_json golden_table) with
  | Ok t -> Alcotest.(check bool) "table survives to_json/of_json" true (t = golden_table)
  | Error e -> Alcotest.failf "of_json rejected to_json output: %s" e

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counter () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~per_thread:true r "ops" in
  Obs.Metrics.incr ~tid:0 c;
  Obs.Metrics.incr ~tid:2 ~by:5 c;
  Obs.Metrics.incr ~tid:0 c;
  Alcotest.(check int) "total" 7 (Obs.Metrics.value c);
  Alcotest.(check (list (pair int int)))
    "per-thread breakdown"
    [ (0, 2); (2, 5) ]
    (Obs.Metrics.per_thread c);
  let again = Obs.Metrics.counter r "ops" in
  Alcotest.(check int) "re-registration returns the same metric" 7
    (Obs.Metrics.value again)

let test_metrics_gauge_hist () =
  let r = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge r "depth" in
  Obs.Metrics.set g 5;
  Obs.Metrics.add g (-2);
  Alcotest.(check int) "current" 3 (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "high-water" 5 (Obs.Metrics.gauge_max g);
  let h = Obs.Metrics.hist r "lat" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 1000 ];
  Alcotest.(check int) "hist count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check (list (pair int int)))
    "log2 buckets"
    [ (1, 1); (2, 2); (512, 1) ]
    (Obs.Metrics.buckets h)

(* The histogram's bucket is the floor of log2, found in fixed steps;
   it must agree with the halving loop it replaced on every int: [<= 1]
   (negatives included) in bucket 0, [max_int] in the last. *)
let bucket_agrees v =
  let hist_buckets = 62 in
  let rec go i d = if d <= 1 || i = hist_buckets - 1 then i else go (i + 1) (d lsr 1) in
  let h = Obs.Metrics.hist (Obs.Metrics.create ()) "h" in
  Obs.Metrics.observe h v;
  Obs.Metrics.buckets h = [ (1 lsl go 0 (Int.max v 0), 1) ]

let test_bucket_edges () =
  let edges =
    [ min_int; -1; 0; 1; max_int ]
    @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]) (List.init 62 Fun.id)
  in
  List.iter
    (fun v -> Alcotest.(check bool) (Printf.sprintf "bucket of %d" v) true (bucket_agrees v))
    edges

let prop_bucket_matches_loop =
  (* any int, and ints of every bit length *)
  let gen =
    QCheck.Gen.(
      oneof [ int; map2 (fun k x -> x land ((1 lsl k) - 1)) (int_range 0 62) int ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"bucket is the halving loop's"
       (QCheck.make ~print:string_of_int gen)
       bucket_agrees)

let test_metrics_parent_and_reset () =
  let parent = Obs.Metrics.create () in
  let child = Obs.Metrics.create ~parent () in
  let c = Obs.Metrics.counter child "ops" in
  let pc = Obs.Metrics.counter parent "ops" in
  Obs.Metrics.incr ~by:3 c;
  Alcotest.(check int) "mirrored into parent" 3 (Obs.Metrics.value pc);
  Obs.Metrics.reset_counter c;
  Obs.Metrics.incr c;
  Alcotest.(check int) "child reset is local" 1 (Obs.Metrics.value c);
  Alcotest.(check int) "parent keeps the trajectory" 4 (Obs.Metrics.value pc);
  let g = Obs.Metrics.gauge child "live" in
  let pg = Obs.Metrics.gauge parent "live" in
  Obs.Metrics.add g 10;
  Obs.Metrics.add g (-4);
  Alcotest.(check int) "gauge deltas aggregate" 6 (Obs.Metrics.gauge_value pg)

(* Per-thread breakdowns are allocated lazily; what they report is not.
   A boot-context prefill is attributed to the boot tid (256, the last
   slot), and a registry reset clears every counter it holds. *)
let test_metrics_boot_tid () =
  let mem = Simmem.create ~threads:2 () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 4 in
  for i = 0 to 3 do
    Simmem.write mem boot (a + i) i
  done;
  ignore (Htm.atomic htm boot (fun tx -> Htm.write tx a (Htm.read tx (a + 1))));
  Sim.run ~seed:1 [| (fun ctx -> ignore (Simmem.read mem ctx a)) |];
  let reg = Simmem.metrics mem in
  let per name = Obs.Metrics.per_thread (Obs.Metrics.counter reg name) in
  Alcotest.(check (list (pair int int)))
    "writes: four stores and the committed one, all boot" [ (Sim.boot_tid, 5) ]
    (per "mem.writes");
  Alcotest.(check (list (pair int int)))
    "reads: thread 0 and boot"
    [ (0, 1); (Sim.boot_tid, 1) ]
    (per "mem.reads");
  Alcotest.(check (list (pair int int)))
    "boot commit" [ (Sim.boot_tid, 1) ]
    (Obs.Metrics.per_thread (Obs.Metrics.counter (Htm.metrics htm) "htm.commits"));
  Alcotest.(check (list (pair int int)))
    "never bumped" []
    (Obs.Metrics.per_thread (Obs.Metrics.counter (Htm.metrics htm) "htm.aborts.explicit"));
  let json = Obs.Json.to_string (Obs.Metrics.to_json reg) in
  Alcotest.(check bool) "json names the boot tid" true
    (Astring.String.is_infix ~affix:"\"256\":5" json);
  List.iter
    (fun r ->
      Obs.Metrics.reset r;
      List.iter
        (fun (name, v) ->
          match v with
          | Obs.Metrics.Counter { total; per_tid } ->
            Alcotest.(check int) (name ^ " reset") 0 total;
            Alcotest.(check (list (pair int int))) (name ^ " breakdown reset") [] per_tid
          | Obs.Metrics.Gauge _ | Obs.Metrics.Hist _ -> ())
        (Obs.Metrics.snapshot r))
    [ reg; Htm.metrics htm ]

let test_metrics_snapshot () =
  let r = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter r "b");
  ignore (Obs.Metrics.gauge r "a");
  ignore (Obs.Metrics.hist r "c");
  let names = List.map fst (Obs.Metrics.snapshot r) in
  Alcotest.(check (list string))
    "first-registration order" [ "b"; "a"; "c" ] names;
  match Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.to_json r)) with
  | Ok v ->
    Alcotest.(check bool)
      "schema tag" true
      (Obs.Json.member "schema" v = Some (Obs.Json.Str "metrics/1"))
  | Error e -> Alcotest.failf "metrics json unparseable: %s" e

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)

let test_tracer_ring () =
  let t = Obs.Tracer.create ~capacity:4 () in
  let s = Obs.Tracer.process t ~name:"m" in
  Obs.Tracer.thread_name s ~tid:0 "worker";
  Obs.Tracer.thread_name s ~tid:0 "worker";
  for i = 1 to 6 do
    Obs.Tracer.instant s ~tid:0 ~name:(Printf.sprintf "e%d" i) (i * 10)
  done;
  Alcotest.(check int) "recorded counts everything" 6 (Obs.Tracer.recorded t);
  Alcotest.(check int) "oldest two overwritten" 2 (Obs.Tracer.dropped t);
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "oldest event gone" false (contains js "\"e1\"");
  Alcotest.(check bool) "newest event kept" true (contains js "\"e6\"");
  (* thread_name metadata is deduplicated and survives the ring *)
  let count_substring hay needle =
    let ln = String.length needle in
    let rec go i acc =
      if i + ln > String.length hay then acc
      else if String.sub hay i ln = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one thread_name record" 1 (count_substring js "thread_name")

let test_tracer_span_args () =
  let t = Obs.Tracer.create () in
  let s = Obs.Tracer.process t ~name:"m" in
  Obs.Tracer.span s ~tid:3 ~name:"tx" ~cat:"tx"
    ~args:[ ("attempt", Obs.Json.Int 2) ]
    100 150;
  match Obs.Json.parse (Obs.Json.to_string (Obs.Tracer.to_json t)) with
  | Error e -> Alcotest.failf "trace json unparseable: %s" e
  | Ok v -> (
    match Obs.Json.member "traceEvents" v with
    | Some (Obs.Json.List evs) ->
      let ev =
        List.find
          (fun e -> Obs.Json.member "name" e = Some (Obs.Json.Str "tx"))
          evs
      in
      Alcotest.(check bool) "ph X" true
        (Obs.Json.member "ph" ev = Some (Obs.Json.Str "X"));
      Alcotest.(check bool) "dur 50" true
        (Obs.Json.member "dur" ev = Some (Obs.Json.Int 50));
      Alcotest.(check bool) "ts 100" true
        (Obs.Json.member "ts" ev = Some (Obs.Json.Int 100));
      Alcotest.(check bool) "tid 3" true
        (Obs.Json.member "tid" ev = Some (Obs.Json.Int 3))
    | _ -> Alcotest.fail "no traceEvents list")

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)

let test_profiler_attribution () =
  let p = Obs.Profiler.create () in
  (* 8-word lines: words 0-7 are line 0, 8-15 line 1, ... *)
  Obs.Profiler.label p ~name:"A" ~base:0 ~words:8;
  Obs.Profiler.label p ~name:"B" ~base:8 ~words:16;
  Obs.Profiler.label p ~name:"A" ~base:0 ~words:8;
  (* relabelling is idempotent *)
  Obs.Profiler.label p ~name:"C" ~base:12 ~words:2;
  (* overlaps B's line *)
  Obs.Profiler.record_transfer p ~line:0 ~wait:0 ~cost:40 ~sharers:2;
  Obs.Profiler.record_transfer p ~line:1 ~wait:10 ~cost:50 ~sharers:3;
  Obs.Profiler.record_transfer p ~line:1 ~wait:0 ~cost:40 ~sharers:1;
  Obs.Profiler.record_transfer p ~line:9 ~wait:0 ~cost:40 ~sharers:1;
  Alcotest.(check int) "total transfers" 4 (Obs.Profiler.total_transfers p);
  let lines = Obs.Profiler.lines p in
  (match lines with
  | top :: _ ->
    Alcotest.(check int) "hottest line first" 1 top.Obs.Profiler.ls_line;
    Alcotest.(check string) "false sharing shown" "B + C" top.ls_region;
    Alcotest.(check int) "wait accumulated" 10 top.ls_wait;
    Alcotest.(check int) "peak sharers" 3 top.ls_max_sharers
  | [] -> Alcotest.fail "no lines");
  let unlabeled =
    List.find (fun l -> l.Obs.Profiler.ls_line = 9) lines
  in
  Alcotest.(check string) "unlabeled line" "?" unlabeled.ls_region;
  match Obs.Profiler.regions p with
  | (top_region, n, _) :: _ ->
    Alcotest.(check string) "hottest region" "B + C" top_region;
    Alcotest.(check int) "hottest region transfers" 2 n
  | [] -> Alcotest.fail "no regions"

(* ------------------------------------------------------------------ *)
(* System level: determinism and zero cost                              *)

let test_trace_determinism () =
  let trace_bytes () =
    let t = Obs.Tracer.create () in
    let sink = Obs.Tracer.process t ~name:"machine" in
    let (_ : int * int * int list) =
      Observed_workload.run ~sinks:[ Simmem.tracer_sink sink ] ~seed:7 ()
    in
    Obs.Json.to_string (Obs.Tracer.to_json t)
  in
  let a = trace_bytes () in
  Alcotest.(check bool) "trace has tx spans" true (contains a "\"tx\"");
  Alcotest.(check string) "same seed, byte-identical trace" a (trace_bytes ())

(* Observation is free on every transaction path: with every machine
   observer attached through the one hook — tracer, profiler, forensics
   and the explorer's text trace — and a parent metrics registry, each
   policy runs cycle-for-cycle as it does bare. *)
let zero_cost_configs =
  [
    Htm.default_config;
    { Htm.default_config with stm = Htm.Stm_after 0 };
    Htm.hybrid_config;
    { Htm.default_config with tle = Htm.Tle_after 1 };
  ]

let test_zero_cost_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"observers never perturb virtual time, on any path"
       QCheck.(int_range 1 10_000)
       (fun seed ->
         List.for_all
           (fun config ->
             let bare = Observed_workload.run ~config ~seed () in
             let t = Obs.Tracer.create () in
             let sink = Obs.Tracer.process t ~name:"m" in
             let metrics = Obs.Metrics.create () in
             let f = Obs.Forensics.create () in
             let trace = Explore.Trace.create () in
             let observed =
               Observed_workload.run ~config ~metrics
                 ~sinks:
                   [
                     Simmem.tracer_sink sink;
                     Simmem.profiler_sink (Obs.Profiler.create ());
                     Simmem.forensics_sink f;
                     Explore.Trace.sink trace;
                   ]
                 ~seed ()
             in
             Obs.Tracer.recorded t > 0
             && Obs.Forensics.count f > 0
             && Explore.Trace.lines trace <> []
             && bare = observed)
           zero_cost_configs))

let test_fault_instants_in_trace () =
  let t = Obs.Tracer.create () in
  let sink = Obs.Tracer.process t ~name:"m" in
  let faults =
    Sim.Fault.make
      { Sim.Fault.none with
        kills_at = [ (1, 300) ];
        fault_seed = 5;
        stall_rate = 0.05;
        stall_cycles = 400
      }
  in
  let seen = ref [] in
  let faults_seen =
    {
      Simmem.fold =
        (fun ~tid:_ ~clock:_ -> function
          | Simmem.Sched (Fault kind) -> seen := kind :: !seen
          | _ -> ());
      accesses = false;
      journal = false;
    }
  in
  let mem = Simmem.create () in
  Simmem.attach mem [ Simmem.tracer_sink sink; faults_seen ];
  Sim.run ~seed:3 ?observe:(Simmem.observer mem) ~faults
    (Array.init 2 (fun _ ->
         fun ctx ->
           for _ = 1 to 100 do
             Sim.tick ctx 10;
             Sim.note_progress ctx
           done));
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "kill instant traced" true (contains js "fault.kill");
  Alcotest.(check bool) "stall instant traced" true (contains js "fault.stall");
  Alcotest.(check bool) "machine sink saw the kill" true
    (List.mem Sim.Fault.Killed !seen);
  Alcotest.(check bool) "machine sink saw a stall" true
    (List.exists (function Sim.Fault.Stalled _ -> true | _ -> false) !seen)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          test_json_roundtrip_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "print golden" `Quick test_table_print_golden;
          Alcotest.test_case "csv golden" `Quick test_table_csv_golden;
          Alcotest.test_case "json roundtrip" `Quick test_table_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "gauge and hist" `Quick test_metrics_gauge_hist;
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          prop_bucket_matches_loop;
          Alcotest.test_case "parent chain and reset" `Quick test_metrics_parent_and_reset;
          Alcotest.test_case "snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "boot tid, lazy breakdown" `Quick test_metrics_boot_tid;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring overwrite" `Quick test_tracer_ring;
          Alcotest.test_case "span payload" `Quick test_tracer_span_args;
        ] );
      ( "profiler",
        [ Alcotest.test_case "attribution" `Quick test_profiler_attribution ] );
      ( "system",
        [
          Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
          test_zero_cost_prop;
          Alcotest.test_case "fault instants" `Quick test_fault_instants_in_trace;
        ] );
    ]
