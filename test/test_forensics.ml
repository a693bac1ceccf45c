(* Tests for transaction forensics (lib/obs/forensics + lib/simmem capture)
   and the satellite observability additions: metrics percentiles, tracer
   drop accounting, conflict flow events — and the system-level guarantees
   the `bench doctor` pipeline rests on: detaching leaves nothing behind
   (witness capture being free is test_obs's zero-cost property), aggregation is
   deterministic across worker counts, and the contend experiment's
   witnesses attribute HoHRC aborts to the header line while ROP's spread
   across payload lines. *)

let contains s affix = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Metrics percentiles (log2 histograms)                               *)

let test_percentiles () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.hist m "lat" in
  Alcotest.(check int) "empty p50" 0 (Obs.Metrics.p50 h);
  Alcotest.(check int) "empty p999" 0 (Obs.Metrics.p999 h);
  (* 90 fast ops (bucket 4), 9 slow (bucket 64), 1 outlier (bucket 4096):
     the classic latency shape the shorthands exist for. *)
  for _ = 1 to 90 do
    Obs.Metrics.observe h 4
  done;
  for _ = 1 to 9 do
    Obs.Metrics.observe h 100
  done;
  Obs.Metrics.observe h 5000;
  Alcotest.(check int) "p50 in the body" 4 (Obs.Metrics.p50 h);
  Alcotest.(check int) "p99 at the knee" 64 (Obs.Metrics.p99 h);
  Alcotest.(check int) "p999 sees the outlier" 4096 (Obs.Metrics.p999 h);
  Alcotest.(check int) "quantile clamped below" 4
    (Obs.Metrics.percentile h (-1.0));
  Alcotest.(check int) "quantile clamped above" 4096
    (Obs.Metrics.percentile h 2.0)

let test_percentile_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"percentile is monotone and bracketed"
       QCheck.(pair (list_of_size Gen.(int_range 1 40) (int_range 0 100_000))
                 (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
       (fun (vs, (q1, q2)) ->
         let m = Obs.Metrics.create () in
         let h = Obs.Metrics.hist m "x" in
         List.iter (Obs.Metrics.observe h) vs;
         let lo = min q1 q2 and hi = max q1 q2 in
         let plo = Obs.Metrics.percentile h lo
         and phi = Obs.Metrics.percentile h hi in
         plo <= phi
         && phi <= Obs.Metrics.p999 h + 0
         && Obs.Metrics.p50 h <= Obs.Metrics.p99 h))

(* ------------------------------------------------------------------ *)
(* Tracer drop accounting                                              *)

let test_tracer_dropped_metadata () =
  let t = Obs.Tracer.create ~capacity:8 () in
  let sink = Obs.Tracer.process t ~name:"m" in
  for i = 1 to 20 do
    Obs.Tracer.instant sink ~tid:0 ~name:(Printf.sprintf "e%d" i) i
  done;
  Alcotest.(check int) "recorded counts everything" 20 (Obs.Tracer.recorded t);
  Alcotest.(check int) "dropped = recorded - capacity" 12 (Obs.Tracer.dropped t);
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "drop metadata record present" true
    (contains js "tracer.dropped");
  Alcotest.(check bool) "dropped count in metadata" true
    (contains js "\"droppedEvents\":12");
  (* The ring keeps the most recent window: the first events are gone,
     the last survive. *)
  Alcotest.(check bool) "oldest overwritten" false (contains js "\"e1\"");
  Alcotest.(check bool) "newest kept" true (contains js "\"e20\"")

let test_tracer_no_drops_no_metadata () =
  let t = Obs.Tracer.create ~capacity:64 () in
  let sink = Obs.Tracer.process t ~name:"m" in
  Obs.Tracer.instant sink ~tid:0 ~name:"only" 5;
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "no drop record when nothing dropped" false
    (contains js "tracer.dropped")

(* ------------------------------------------------------------------ *)
(* Forensics aggregation (pure, synthetic witnesses)                   *)

let w ?(victim = 3) ?(aggressor = 1) ?(addr = 0x128) ?(ww = false)
    ?(rs = true) ?(wset = false) ?(op = "commit") ?(agg_clock = 90)
    ?(clock = 100) ?(site = "htm.read") () : Obs.Forensics.witness =
  {
    w_victim = victim;
    w_aggressor = aggressor;
    w_addr = addr;
    w_line = addr lsr 3;
    w_victim_wrote = ww;
    w_read_set = rs;
    w_write_set = wset;
    w_op = op;
    w_aggressor_clock = agg_clock;
    w_clock = clock;
    w_site = site;
  }

let test_forensics_aggregates () =
  let f = Obs.Forensics.create () in
  Obs.Forensics.label f ~name:"A" ~base:0x120 ~words:8;
  Obs.Forensics.label f ~name:"B" ~base:0x128 ~words:8;
  (* false-shares A's second line? no: 0x128 starts line 0x25 *)
  Obs.Forensics.label f ~name:"B2" ~base:0x12c ~words:2;
  Obs.Forensics.note_alloc f ~base:0x120 ~words:16 ~tid:7 ~clock:50;
  Obs.Forensics.record f (w ());
  Obs.Forensics.record f (w ~ww:true ~wset:true ~site:"htm.commit" ());
  Obs.Forensics.record f (w ~victim:2 ~aggressor:3 ~addr:0x400 ());
  Alcotest.(check int) "count" 3 (Obs.Forensics.count f);
  (match Obs.Forensics.edges f with
  | [ e1; e2 ] ->
    Alcotest.(check int) "edge sorted by victim" 2 e1.Obs.Forensics.es_victim;
    Alcotest.(check int) "edge aggressor" 3 e1.es_aggressor;
    Alcotest.(check int) "rw count" 1 e2.es_rw;
    Alcotest.(check int) "ww count" 1 e2.es_ww
  | es -> Alcotest.failf "expected 2 edges, got %d" (List.length es));
  (match Obs.Forensics.lines f with
  | top :: rest ->
    Alcotest.(check int) "hottest line first" (0x128 lsr 3)
      top.Obs.Forensics.fl_line;
    Alcotest.(check string) "false sharing joined" "B + B2" top.fl_region;
    Alcotest.(check int) "conflicts" 2 top.fl_conflicts;
    (match top.fl_prov with
    | Some (tid, clock, n) ->
      Alcotest.(check int) "prov tid" 7 tid;
      Alcotest.(check int) "prov clock" 50 clock;
      Alcotest.(check bool) "prov count positive" true (n >= 1)
    | None -> Alcotest.fail "provenance missing");
    (match rest with
    | [ cold ] -> Alcotest.(check string) "unlabeled region" "?" cold.fl_region
    | _ -> Alcotest.fail "expected exactly one cold line")
  | [] -> Alcotest.fail "no lines");
  (match Obs.Forensics.regions f with
  | (r, n) :: _ ->
    Alcotest.(check string) "hottest region" "B + B2" r;
    Alcotest.(check int) "hottest region conflicts" 2 n
  | [] -> Alcotest.fail "no regions");
  Alcotest.(check (list (pair string int)))
    "sites descending"
    [ ("htm.read", 2); ("htm.commit", 1) ]
    (Obs.Forensics.sites f);
  Alcotest.(check (list (pair int int)))
    "victims ascending tid"
    [ (2, 1); (3, 2) ]
    (Obs.Forensics.victims f)

let test_forensics_hop_bound () =
  let f = Obs.Forensics.create ~max_hops:2 () in
  for i = 1 to 3 do
    Obs.Forensics.note_hop f ~tid:i ~clock:(i * 10) ~from_path:"hw"
      ~to_path:"stm" ~reason:"conflict" (Some (w ()))
  done;
  Alcotest.(check int) "total counted past bound" 3 (Obs.Forensics.hop_count f);
  let hops = Obs.Forensics.hops f in
  Alcotest.(check int) "stored bounded" 2 (List.length hops);
  (match hops with
  | h :: _ ->
    Alcotest.(check int) "oldest first" 1 h.Obs.Forensics.hp_tid;
    Alcotest.(check string) "from" "hw" h.hp_from;
    Alcotest.(check string) "to" "stm" h.hp_to;
    Alcotest.(check bool) "witness threaded" true (h.hp_witness <> None)
  | [] -> Alcotest.fail "no hops")

let test_forensics_absorb () =
  let mk wit =
    let f = Obs.Forensics.create () in
    Obs.Forensics.label f ~name:"R" ~base:0x120 ~words:8;
    List.iter (Obs.Forensics.record f) wit;
    f
  in
  let a = mk [ w (); w ~victim:2 () ] in
  let b = mk [ w (); w ~addr:0x200 ~site:"mem.cas" () ] in
  Obs.Forensics.note_hop b ~tid:0 ~clock:9 ~from_path:"hw" ~to_path:"tle"
    ~reason:"overflow" None;
  Obs.Forensics.absorb a b;
  Alcotest.(check int) "counts add" 4 (Obs.Forensics.count a);
  Alcotest.(check int) "hops concatenate" 1 (Obs.Forensics.hop_count a);
  (match Obs.Forensics.sites a with
  | (s, n) :: _ ->
    Alcotest.(check string) "merged hottest site" "htm.read" s;
    Alcotest.(check int) "merged site count" 3 n
  | [] -> Alcotest.fail "no sites");
  (* Absorb is count-preserving on edges too. *)
  let total_edges =
    List.fold_left
      (fun acc (e : Obs.Forensics.edge_stat) -> acc + e.es_rw + e.es_ww)
      0 (Obs.Forensics.edges a)
  in
  Alcotest.(check int) "edge totals add" 4 total_edges

(* Golden diagnosis rendering, pinned byte for byte — the table `bench
   doctor` prints. *)
let test_print_golden () =
  let f = Obs.Forensics.create () in
  Obs.Forensics.label f ~name:"Hdr" ~base:0x128 ~words:8;
  Obs.Forensics.note_alloc f ~base:0x128 ~words:8 ~tid:2 ~clock:40;
  Obs.Forensics.record f (w ());
  Obs.Forensics.record f (w ~ww:true ~wset:true ~site:"htm.commit" ());
  Obs.Forensics.note_hop f ~tid:3 ~clock:120 ~from_path:"hw" ~to_path:"stm"
    ~reason:"conflict" (Some (w ()));
  let rendered = Format.asprintf "%a" (Obs.Forensics.print ?top:None) f in
  let expected =
    String.concat "\n"
      [
        "witnesses: 2 conflict(s), 1 escalation hop(s)";
        "";
        "== conflict graph (victim <- aggressor) ==";
        "victim  aggressor  R/W  W/W  total  ";
        "t3      t1         1    1    2      ";
        "";
        "== hot lines (top 12 by conflicts) ==";
        "line   region  allocated by     conflicts  R/W  W/W  ";
        "0x128  Hdr     t2@40 (alloc 1)  2          1    1    ";
        "";
        "== abort attribution by site ==";
        "site        witnesses  ";
        "htm.commit  1          ";
        "htm.read    1          ";
        "";
        "== escalation timeline (first 1 of 1 hops) ==";
        "thread  clock  hop      reason    witness                       ";
        "t3      120    hw->stm  conflict  t3<-t1 R/W 0x128 (commit rs)  ";
        "";
      ]
  in
  Alcotest.(check string) "diagnosis renders exactly" expected rendered

(* Property: to_json output survives print -> parse. *)
let witness_gen =
  QCheck.Gen.(
    let* victim = int_range 0 7 in
    let* aggressor = int_range (-1) 7 in
    let* addr = map (fun a -> a * 4) (int_range 0 200) in
    let* ww = bool in
    let* site = oneofl [ "htm.read"; "htm.commit"; "stm.read.stale"; "mem.cas" ] in
    return
      (w ~victim ~aggressor ~addr ~ww ~site
         ~agg_clock:(if aggressor < 0 then -1 else 10)
         ()))

let test_json_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"to_json -> print -> parse = id"
       QCheck.(make Gen.(list_size (int_range 0 40) witness_gen))
       (fun ws ->
         let f = Obs.Forensics.create () in
         Obs.Forensics.label f ~name:"R" ~base:0 ~words:64;
         List.iter (Obs.Forensics.record f) ws;
         (match ws with
         | wit :: _ ->
           Obs.Forensics.note_hop f ~tid:0 ~clock:5 ~from_path:"hw"
             ~to_path:"stm" ~reason:"conflict" (Some wit)
         | [] -> ());
         let j = Obs.Forensics.to_json f in
         match Obs.Json.parse (Obs.Json.to_string j) with
         | Ok j' -> j' = j
         | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Live capture on a real machine                                      *)

let test_live_capture () =
  let f = Obs.Forensics.create () in
  let addr, _, _ = Observed_workload.run ~sinks:[ Simmem.forensics_sink f ] ~seed:7 () in
  Alcotest.(check bool) "witnesses captured" true (Obs.Forensics.count f > 0);
  (match Obs.Forensics.lines f with
  | top :: _ ->
    Alcotest.(check bool) "conflicts inside the scanned region" true
      (top.Obs.Forensics.fl_line >= addr lsr 3
      && top.fl_line <= (addr + 15) lsr 3);
    Alcotest.(check string) "region resolved" "shared" top.fl_region;
    (match top.fl_prov with
    | Some (tid, _, _) ->
      (* malloc ran on the boot context, which carries the reserved tid. *)
      Alcotest.(check bool) "provenance recorded" true (tid >= 0)
    | None -> Alcotest.fail "no allocation provenance")
  | [] -> Alcotest.fail "no hot lines");
  (* The journal resolves aggressors: every edge of this fully-tracked
     run names a real thread on both ends. *)
  Alcotest.(check bool) "aggressors resolved" true
    (List.for_all
       (fun (e : Obs.Forensics.edge_stat) -> e.es_aggressor >= 0)
       (Obs.Forensics.edges f));
  Alcotest.(check bool) "capture sites are transactional" true
    (List.for_all
       (fun (s, _) -> contains s "htm.")
       (Obs.Forensics.sites f))

let test_conflict_flows_in_trace () =
  let t = Obs.Tracer.create () in
  let sink = Obs.Tracer.process t ~name:"m" in
  let f = Obs.Forensics.create () in
  let _ =
    Observed_workload.run
      ~sinks:[ Simmem.tracer_sink sink; Simmem.forensics_sink f ]
      ~seed:7 ()
  in
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "flow tail events" true (contains js "\"ph\":\"s\"");
  Alcotest.(check bool) "flow head events" true (contains js "\"ph\":\"f\"");
  Alcotest.(check bool) "forensics category" true
    (contains js "\"cat\":\"forensics\"");
  Alcotest.(check bool) "named after the conflict" true
    (contains js "\"conflict\"")

(* Runs [blocks] on a fresh heap with forensics and the explorer's text
   trace attached; returns the hops and the trace's lines. *)
let observed_escalation config blocks =
  let f = Obs.Forensics.create () in
  let trace = Explore.Trace.create () in
  let mem = Simmem.create () in
  Simmem.attach mem [ Simmem.forensics_sink f; Explore.Trace.sink trace ];
  let htm = Htm.create ~config mem in
  let boot = Sim.boot ~seed:3 () in
  let n = config.Htm.store_buffer + 1 in
  let addr = Simmem.malloc mem boot n in
  Sim.run ~seed:3 ?observe:(Simmem.observer mem) (blocks htm addr n);
  (Obs.Forensics.hops f, Explore.Trace.lines trace)

(* A block one store past the hardware's capacity. *)
let overflow htm ctx addr n =
  Htm.atomic htm ctx (fun tx ->
      for i = 0 to n - 1 do
        Htm.write tx (addr + i) i
      done)

let hop_line (h : Obs.Forensics.hop) =
  Format.asprintf "t%d @%d %s->%s %s %a" h.hp_tid h.hp_clock h.hp_from h.hp_to h.hp_reason
    (Format.pp_print_option Obs.Forensics.pp_witness)
    h.hp_witness

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Every escalation hop: hw->tle when the lock follows the hardware
   directly, and hw->stm then stm->tle under the hybrid lattice, where a
   writer keeps dooming the software attempts until their budget runs
   out. The digests pin each hop (from, to, reason, witness) as
   forensics records it and the explorer trace's lines around them; the
   lock path's commit line counts the loads and stores it issued (one
   and 33 under the hybrid lattice). *)
let test_escalation_hop_capture () =
  let hops, lines =
    observed_escalation { Htm.default_config with tle = Htm.Tle_after 1 }
      (fun htm addr n -> [| (fun ctx -> overflow htm ctx addr n) |])
  in
  (match hops with
   | [ h ] ->
     Alcotest.(check string) "left the hardware path" "hw" h.Obs.Forensics.hp_from;
     Alcotest.(check string) "into the lock" "tle" h.hp_to;
     Alcotest.(check string) "driven by the overflow" "overflow" h.hp_reason
   | hs -> Alcotest.failf "expected 1 hop, got %d" (List.length hs));
  Alcotest.(check string) "hw->tle hops digest" "582d6f5b7e208d623166528caa85b9b4"
    (digest (List.map hop_line hops));
  Alcotest.(check string) "hw->tle trace digest" "274041ec5e4460f67b0184681d9f4e72"
    (digest lines);
  let hops, lines =
    observed_escalation Htm.hybrid_config (fun htm addr n ->
        let finished = ref false in
        [|
          (fun ctx ->
            Htm.atomic htm ctx (fun tx ->
                ignore (Htm.read tx addr);
                for i = 0 to n - 1 do
                  Htm.write tx (addr + i) i
                done);
            finished := true);
          (fun ctx ->
            while not !finished do
              Simmem.write (Htm.mem htm) ctx addr 7;
              Sim.tick ctx 500
            done);
        |])
  in
  Alcotest.(check (list (pair string string))) "hw->stm, then stm->tle"
    [ ("hw", "stm"); ("stm", "tle") ]
    (List.map (fun (h : Obs.Forensics.hop) -> (h.hp_from, h.hp_to)) hops);
  Alcotest.(check string) "hybrid hops digest" "4a4479869191d15df6d74f1c68c0e671"
    (digest (List.map hop_line hops));
  Alcotest.(check string) "hybrid trace digest" "aa2fb3fba41da0bf0d66dadb8b8c25b3"
    (digest lines)

(* Detaching is complete: once the last sink goes, the last-writer
   journal is off and a committed store leaves no entry — the
   heap is back to paying one untaken branch per access. *)
let test_detach_unobserved () =
  let mem = Simmem.create () in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  Simmem.attach mem [ Simmem.forensics_sink (Obs.Forensics.create ()) ];
  Simmem.write mem boot a 1;
  Alcotest.(check bool) "journal on while attached" true
    (Option.is_some (Simmem.last_writer mem a));
  Simmem.attach mem [];
  Simmem.write mem boot a 2;
  Alcotest.(check bool) "no journal after detach" true
    (Option.is_none (Simmem.last_writer mem a));
  Alcotest.(check bool) "nothing observed" false (Simmem.observed mem)

(* ------------------------------------------------------------------ *)
(* The doctor pipeline: determinism across jobs, and the contend        *)
(* experiment's attribution shape                                       *)

(* The contend experiment's cells, as bench/experiments.ml builds them
   (bench's default duration 300_000 and seed 1). bench/experiments is a
   private executable module, so the cells are reconstructed from the
   same workload entry points. *)
let contend_cells () =
  let hohrc = Option.get (Collect.find_maker "ListHoHRC") in
  let rop = Option.get (Hqueue.find_maker "MichaelScott+ROP") in
  let duration = 300_000 and seed = 1 in
  [
    Runner.Cell.v ~label:"contend/ListHoHRC" (fun () ->
        ignore
          (Workload.Collect_update.run_one hohrc ~updaters:15 ~period:1_000
             ~duration ~step:(Collect.Intf.Fixed 8) ~seed));
    Runner.Cell.v ~label:"contend/ListHoHRC-churn" (fun () ->
        ignore
          (Workload.Collect_update.churn_one hohrc ~threads:16
             ~duration:(duration / 2) ~seed));
    Runner.Cell.v ~label:"contend/MichaelScott+ROP" (fun () ->
        ignore
          (Workload.Queue_bench.run_one rop ~threads:4 ~duration:(duration / 12)
             ~prefill:64 ~seed));
    Runner.Cell.v ~label:"contend/MichaelScott+ROP-hot" (fun () ->
        ignore
          (Workload.Queue_bench.run_one rop ~threads:12
             ~duration:(duration / 12) ~prefill:64 ~seed));
  ]

let forensics_bytes outcomes =
  Runner.Sweep.forensics outcomes
  |> List.map (fun (name, f) ->
         name ^ ":" ^ Obs.Json.to_string (Obs.Forensics.to_json f))
  |> String.concat "\n"

let test_doctor_determinism_and_shape () =
  let serial = Runner.Sweep.run ~forensics:true (contend_cells ()) in
  let parallel = Runner.Sweep.run ~jobs:8 ~forensics:true (contend_cells ()) in
  Alcotest.(check string) "forensics byte-identical across jobs"
    (forensics_bytes serial) (forensics_bytes parallel);
  let fors = Runner.Sweep.forensics serial in
  Alcotest.(check bool) "every machine reports" true (List.length fors >= 4);
  (* HoHRC attribution: the majority of its conflict witnesses must land
     on header-labelled lines — the experiment's known truth. *)
  let hohrc = List.filter (fun (n, _) -> contains n "ListHoHRC") fors in
  Alcotest.(check bool) "hohrc machines present" true (hohrc <> []);
  let header, other =
    List.fold_left
      (fun (h, o) (_, f) ->
        List.fold_left
          (fun (h, o) (region, n) ->
            if contains region "header" then (h + n, o) else (h, o + n))
          (h, o) (Obs.Forensics.regions f))
      (0, 0) hohrc
  in
  Alcotest.(check bool) "hohrc saw conflicts" true (header + other > 0);
  Alcotest.(check bool)
    (Printf.sprintf "header-attributed majority (%d header vs %d other)" header
       other)
    true
    (header > other);
  (* ROP attribution: its payload (node) witnesses spread across lines —
     no single node line dominates, and several are hit. *)
  let rop =
    List.filter (fun (n, _) -> contains n "MichaelScott+ROP") fors
  in
  Alcotest.(check bool) "rop machines present" true (rop <> []);
  let node_lines =
    List.concat_map
      (fun (_, f) ->
        List.filter
          (fun (l : Obs.Forensics.line_stat) -> contains l.fl_region "node")
          (Obs.Forensics.lines f))
      rop
  in
  let node_total =
    List.fold_left (fun acc (l : Obs.Forensics.line_stat) -> acc + l.fl_conflicts) 0 node_lines
  in
  Alcotest.(check bool)
    (Printf.sprintf "payload witnesses spread over %d lines"
       (List.length node_lines))
    true
    (List.length node_lines >= 3);
  List.iter
    (fun (l : Obs.Forensics.line_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "no node line dominates (line 0x%x: %d of %d)"
           l.fl_addr l.fl_conflicts node_total)
        true
        (2 * l.fl_conflicts <= node_total))
    node_lines

let () =
  Alcotest.run "forensics"
    [
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          test_percentile_prop;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "dropped metadata" `Quick test_tracer_dropped_metadata;
          Alcotest.test_case "no drops, no metadata" `Quick
            test_tracer_no_drops_no_metadata;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "aggregates" `Quick test_forensics_aggregates;
          Alcotest.test_case "hop bound" `Quick test_forensics_hop_bound;
          Alcotest.test_case "absorb" `Quick test_forensics_absorb;
          Alcotest.test_case "print golden" `Quick test_print_golden;
          test_json_roundtrip_prop;
        ] );
      ( "capture",
        [
          Alcotest.test_case "live witnesses" `Quick test_live_capture;
          Alcotest.test_case "conflict flows in trace" `Quick
            test_conflict_flows_in_trace;
          Alcotest.test_case "escalation hops" `Quick test_escalation_hop_capture;
          Alcotest.test_case "detach is unobserved" `Quick test_detach_unobserved;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "determinism and attribution shape" `Slow
            test_doctor_determinism_and_shape;
        ] );
    ]
