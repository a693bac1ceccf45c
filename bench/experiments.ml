(* The experiment registry: every figure and table of the bench harness
   as data. One experiment = a canonical list of independent {!Runner.Cell}s
   (the unit the domain pool shards) plus a presentation function that
   turns the cell results — always delivered in canonical order — into
   printed tables. `bench/main.ml` is only the CLI around this table.

   The split is the determinism contract made structural: everything that
   affects the output lives in the cells' closures (duration, seed,
   algorithm, period), so the rendered tables and the BENCH_<name>.json
   artifacts are byte-identical whatever --jobs is. *)

type ctx = {
  duration : int;
  seed : int;
  emit : Obs.Table.table -> unit;
      (* print the table and capture it for the JSON artifact *)
  ppf : Format.formatter;  (* for non-tabular prose *)
}

type spec =
  | Spec : {
      cells : duration:int -> seed:int -> 'a Runner.Cell.t list;
      present : ctx -> 'a Runner.Sweep.outcome list -> unit;
    }
      -> spec

type t = {
  name : string;
  doc : string;
  default_duration : int;
  profile : bool;  (* cells run with the contention profiler on *)
  spec : spec;
}

let exp ?(profile = false) name doc default_duration cells present =
  { name; doc; default_duration; profile; spec = Spec { cells; present } }

let values = Runner.Sweep.values

(* ------------------------------------------------------------------ *)
(* The paper's figures (§5)                                            *)

let fig1 =
  exp "fig1" "queue throughput vs threads" 300_000
    (fun ~duration ~seed -> Workload.Queue_bench.cells ~duration ~seed ())
    (fun ctx ocs -> ctx.emit (Workload.Queue_bench.to_table (values ocs)))

let latency =
  exp "latency" "section 5.1 update latency" 0
    (fun ~duration:_ ~seed -> Workload.Latency.cells ~seed ())
    (fun ctx ocs -> ctx.emit (Workload.Latency.to_table (values ocs)))

let fig3 =
  exp "fig3" "collect-dominated mixed workload" 400_000
    (fun ~duration ~seed -> Workload.Collect_dominated.cells ~duration ~seed ())
    (fun ctx ocs -> ctx.emit (Workload.Collect_dominated.to_table (values ocs)))

let fig4 =
  exp "fig4" "collect-update period sweep" 400_000
    (fun ~duration ~seed -> Workload.Collect_update.cells_fig4 ~duration ~seed ())
    (fun ctx ocs ->
      ctx.emit
        (Workload.Collect_update.to_table
           ~title:"Figure 4: Collect-Update (1 collector, 15 updaters)" (values ocs)))

let fig5 =
  exp "fig5" "step-size comparison" 300_000
    (fun ~duration ~seed -> Workload.Collect_update.cells_fig5 ~duration ~seed ())
    (fun ctx ocs ->
      ctx.emit
        (Workload.Collect_update.to_table
           ~title:"Figure 5: Step sizes for ArrayDynAppendDereg"
           (Workload.Collect_update.fig5_collate (values ocs))))

let fig6 =
  exp "fig6" "adaptive step-size distribution" 400_000
    (fun ~duration ~seed -> Workload.Collect_update.cells_fig6 ~duration ~seed ())
    (fun ctx ocs -> ctx.emit (Workload.Collect_update.fig6_table (values ocs)))

let fig7 =
  exp "fig7" "collect-(de)register sweep" 400_000
    (fun ~duration ~seed -> Workload.Collect_dereg.cells ~duration ~seed ())
    (fun ctx ocs -> ctx.emit (Workload.Collect_dereg.to_table (values ocs)))

let fig8 =
  (* duration here scales the phase length: 6 phases per run *)
  exp "fig8" "phased registered-slot count" 2_000_000
    (fun ~duration ~seed ->
      Workload.Phased.cells ~phase_len:(max 200_000 (duration / 2)) ~seed ())
    (fun ctx ocs -> ctx.emit (Workload.Phased.to_table (values ocs)))

let space =
  exp "space" "space usage at quiescence" 0
    (fun ~duration:_ ~seed ->
      Workload.Space_bench.queue_cells ~seed () @ Workload.Space_bench.collect_cells ~seed ())
    (fun ctx ocs ->
      let qs, cs =
        List.partition
          (fun (r : Workload.Space_bench.result) ->
            String.starts_with ~prefix:"queue/" r.subject)
          (values ocs)
      in
      ctx.emit (Workload.Space_bench.to_table ~title:"Space: queues at peak vs drained" qs);
      ctx.emit
        (Workload.Space_bench.to_table ~title:"Space: collect objects at peak vs deregistered"
           cs))

(* ------------------------------------------------------------------ *)
(* Abort-rate telemetry behind Figures 4/5: the fraction of transaction
   attempts that abort, per algorithm and update period. This is the
   mechanism the paper invokes to explain every degradation curve. *)

let abort_steps = [ Collect.Intf.Fixed 8; Collect.Intf.Fixed 32; Collect.Intf.Adaptive ]
let abort_periods = [ 100_000; 20_000; 8_000; 2_000; 800; 400 ]

let aborts =
  exp "aborts" "abort-rate telemetry behind figs 4/5" 300_000
    (fun ~duration ~seed ->
      let maker = Option.get (Collect.find_maker "ArrayDynAppendDereg") in
      List.concat_map
        (fun period ->
          List.map
            (fun step ->
              Runner.Cell.v
                ~label:
                  (Printf.sprintf "aborts/%s/p%d"
                     (Workload.Collect_update.step_label step) period)
                (fun () ->
                  Workload.Collect_update.run_one maker ~updaters:15 ~period ~duration
                    ~step ~seed))
            abort_steps)
        abort_periods)
    (fun ctx ocs ->
      let vs = Array.of_list (values ocs) in
      let nsteps = List.length abort_steps in
      let rows =
        List.mapi
          (fun pi period ->
            ( Workload.Collect_update.period_label period,
              List.mapi
                (fun si _ ->
                  let r : Workload.Collect_update.result = vs.((pi * nsteps) + si) in
                  (* Updater transactions essentially never abort, so the
                     abort count is attributable to the collector's chunks. *)
                  let collects =
                    Workload.Driver.ops_of_per_us ~per_us:r.throughput
                      ~duration:ctx.duration
                  in
                  if collects = 0 then None
                  else Some (float_of_int r.aborts /. float_of_int collects))
                abort_steps ))
          abort_periods
      in
      ctx.emit
        {
          Obs.Table.title = "Abort telemetry: ArrayDynAppendDereg collect-update";
          xlabel = "period";
          unit = "aborts per collect";
          columns = List.map Workload.Collect_update.step_label abort_steps;
          rows;
        })

(* ------------------------------------------------------------------ *)
(* The robustness experiment: deterministic thread kills, stalls and
   spurious aborts against every algorithm, with the section 2.3 checker
   as the oracle. Duration is fixed by the fault schedule, so --duration
   is ignored; --seed reproduces the exact run. *)

let chaos =
  exp "chaos" "fault injection: crashes, stalls, spurious aborts" 0
    (fun ~duration:_ ~seed -> Workload.Chaos_bench.cells ~seed ())
    (fun ctx ocs ->
      let s = Workload.Chaos_bench.summary_of_pieces (values ocs) in
      List.iter
        (fun (table, note) ->
          ctx.emit table;
          Format.fprintf ctx.ppf "@.%s@." note)
        (Workload.Chaos_bench.tables s))

(* ------------------------------------------------------------------ *)
(* The degradation lattice: fallback policy x thread count on big
   transactions, hybrid-TM interference, and mid-commit-crash liveness.
   The chaos piece's duration is fixed by its fault schedule; --duration
   scales the throughput sweeps. *)

let fallback =
  exp "fallback" "fallback policies: HTM -> STM -> TLE degradation" 300_000
    (fun ~duration ~seed -> Workload.Fallback_bench.cells ~duration ~seed ())
    (fun ctx ocs ->
      let s = Workload.Fallback_bench.summary_of_pieces (values ocs) in
      List.iter
        (fun (table, note) ->
          ctx.emit table;
          if note <> "" then Format.fprintf ctx.ppf "@.%s@." note)
        (Workload.Fallback_bench.tables s))

(* ------------------------------------------------------------------ *)
(* The memory-ordering matrix: the linearizability search and the litmus
   enumeration re-run under every Sim.Memmodel variant. Duration is
   fixed by the search budgets and the exhaustive litmus enumeration, so
   --duration is ignored; --seed shifts the search seed sequence. *)

let memorder =
  exp "memorder" "memory models: fence hunting and litmus per variant" 0
    (fun ~duration:_ ~seed -> Workload.Memorder_bench.cells ~seed ())
    (fun ctx ocs ->
      let s = Workload.Memorder_bench.summary_of_pieces (values ocs) in
      List.iter
        (fun (table, note) ->
          ctx.emit table;
          Format.fprintf ctx.ppf "@.%s@." note)
        (Workload.Memorder_bench.tables s))

(* ------------------------------------------------------------------ *)
(* The coherence-contention profile: run the paper's two extremes of
   reclamation-induced cache traffic — hand-over-hand reference counting
   (every traversal writes reference counts, starting at the list header,
   so the header line ping-pongs between all cores) and ROP (readers
   publish hazard pointers to per-thread slots and nodes are reclaimed in
   bulk) — and attribute every coherence transfer to the labeled region
   it hit. The merged ranked heatmap is the paper's §5 "why HoHRC loses"
   argument made mechanical: the HoHRC header line outranks every ROP
   line. *)

type contend_piece =
  | C_hohrc of Workload.Collect_update.result
  | C_churn of Workload.Collect_update.churn_result
  | C_rop of Workload.Queue_bench.result

let contend =
  exp "contend" "coherence-contention profile: HoHRC vs ROP" 300_000 ~profile:true
    (fun ~duration ~seed ->
      let hohrc = Option.get (Collect.find_maker "ListHoHRC") in
      let rop = Option.get (Hqueue.find_maker "MichaelScott+ROP") in
      [
        Runner.Cell.v ~label:"contend/ListHoHRC" (fun () ->
            C_hohrc
              (Workload.Collect_update.run_one hohrc ~updaters:15 ~period:1_000 ~duration
                 ~step:(Collect.Intf.Fixed 8) ~seed));
        (* Registration churn is where the header line stops being mere
           coherence traffic and starts killing transactions: every head
           insertion that commits invalidates the header word under the
           collects in flight. Sized (16 threads, half window) so its
           header conflicts dominate the experiment's witness total —
           this cell is the known truth `bench doctor contend` exists to
           attribute. *)
        Runner.Cell.v ~label:"contend/ListHoHRC-churn" (fun () ->
            C_churn
              (Workload.Collect_update.churn_one hohrc ~threads:16
                 ~duration:(max 40_000 (duration / 2)) ~seed));
        (* Matched operation budget: per queue operation the ROP queue is
           an order of magnitude faster than a HoHRC traversal, so equal
           wall windows would compare 10x the operations and swamp the
           per-op story. A window one twelfth as long puts both workloads
           in the same operation ballpark; the context table above is
           per-microsecond and unaffected. *)
        Runner.Cell.v ~label:"contend/MichaelScott+ROP" (fun () ->
            C_rop
              (Workload.Queue_bench.run_one rop ~threads:4
                 ~duration:(max 20_000 (duration / 12)) ~prefill:64 ~seed));
        (* The hot variant exists for the abort story's other half: at 12
           threads the queue's CAS retries actually fail, and their
           witnesses land on the nodes and hazard slots each operation
           happened to touch — payload spread, the opposite shape of the
           churn cell's header pile-up. *)
        Runner.Cell.v ~label:"contend/MichaelScott+ROP-hot" (fun () ->
            C_rop
              (Workload.Queue_bench.run_one rop ~threads:12
                 ~duration:(max 20_000 (duration / 12)) ~prefill:64 ~seed));
      ])
    (fun ctx ocs ->
      let r, c, q, qh =
        match values ocs with
        | [ C_hohrc r; C_churn c; C_rop q; C_rop qh ] -> (r, c, q, qh)
        | _ -> assert false
      in
      ctx.emit
        {
          Obs.Table.title = "Contention workloads (context)";
          xlabel = "workload";
          unit = "ops/us";
          columns = [ "throughput" ];
          rows =
            [
              ("ListHoHRC collect-update", [ Some r.throughput ]);
              ("ListHoHRC registration churn", [ Some c.churn_throughput ]);
              ("MichaelScott+ROP queue", [ Some q.throughput ]);
              ("MichaelScott+ROP queue x12", [ Some qh.throughput ]);
            ];
        };
      (* Per-machine heatmaps, then the merged ranking across machines. *)
      let profs = Runner.Sweep.profilers ocs in
      let pf fmt = Format.fprintf ctx.ppf fmt in
      List.iter
        (fun (mach, p) ->
          pf "== Contention: %s (%d transfers) ==@." mach (Obs.Profiler.total_transfers p);
          Obs.Profiler.print ~top:8 ctx.ppf p)
        profs;
      let entries =
        List.concat_map
          (fun (mach, p) -> List.map (fun ls -> (mach, ls)) (Obs.Profiler.lines ~top:12 p))
          profs
      in
      let ranked =
        List.sort
          (fun (_, a) (_, b) ->
            Int.compare b.Obs.Profiler.ls_transfers a.Obs.Profiler.ls_transfers)
          entries
      in
      let top n l = List.filteri (fun i _ -> i < n) l in
      pf "== Contention: all machines ranked by coherence transfers ==@.";
      Obs.Table.print_cols ctx.ppf
        [ "machine"; "line"; "region"; "transfers"; "miss cycles"; "queue wait";
          "peak sharers" ]
        (List.map
           (fun (mach, ls) ->
             [
               mach;
               string_of_int ls.Obs.Profiler.ls_line;
               ls.ls_region;
               string_of_int ls.ls_transfers;
               string_of_int ls.ls_cycles;
               string_of_int ls.ls_wait;
               string_of_int ls.ls_max_sharers;
             ])
           (top 16 ranked));
      pf "@.")

(* ------------------------------------------------------------------ *)
(* Ablations (paper §6)                                                *)

type ablate_piece =
  | A_tle of (float * int)  (* throughput, lock fallbacks *)
  | A_sandbox of string  (* run verdict *)
  | A_sb of (float * int)  (* throughput, largest step discovered *)

(* Sandboxing (paper footnote 1 / §6): a transaction that loads a
   pointer, stalls, and dereferences it after a concurrent thread has
   freed the target — exactly the pattern of FastCollect's unpinned
   traversal cursor. A sandboxed HTM aborts and retries; an unsandboxed
   one segfaults. *)
let ablate_sandbox_one ~seed sandboxed =
  let config = { Htm.default_config with sandboxed } in
  let mem = Simmem.create () in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot ~seed () in
  let box = Simmem.malloc mem boot 1 in
  let target = Simmem.malloc mem boot 2 in
  Simmem.write mem boot target 41;
  Simmem.write mem boot box target;
  let reader ctx =
    let v =
      Htm.atomic htm ctx (fun tx ->
          let p = Htm.read tx box in
          (* stall with the pointer in hand *)
          Sim.advance_to ctx (Sim.clock ctx + 2_000);
          Htm.read tx p)
    in
    ignore v
  in
  let mutator ctx =
    Sim.advance_to ctx 500;
    let fresh = Simmem.malloc mem ctx 2 in
    Simmem.write mem ctx fresh 42;
    Simmem.write mem ctx box fresh;
    Simmem.free mem ctx target
  in
  match Sim.run ~seed [| reader; mutator |] with
  | () -> A_sandbox "completed (transaction aborted and retried)"
  | exception Simmem.Fault f -> A_sandbox (Format.asprintf "SEGFAULT: %a" Simmem.pp_fault f)

let sb_buffers = [ 8; 16; 32; 64 ]

let ablate =
  exp "ablate" "section 6 ablations" 200_000
    (fun ~duration ~seed ->
      [
        Runner.Cell.v ~label:"ablate/tle/native" (fun () ->
            A_tle
              (Workload.Collect_cell.tle_one ~htm_config:Htm.default_config ~duration
                 ~seed));
        Runner.Cell.v ~label:"ablate/tle/after4" (fun () ->
            A_tle
              (Workload.Collect_cell.tle_one
                 ~htm_config:{ Htm.default_config with tle = Htm.Tle_after 4 }
                 ~duration ~seed));
        Runner.Cell.v ~label:"ablate/sandbox/on" (fun () -> ablate_sandbox_one ~seed true);
        Runner.Cell.v ~label:"ablate/sandbox/off" (fun () -> ablate_sandbox_one ~seed false);
      ]
      @ List.map
          (fun sb ->
            Runner.Cell.v
              ~label:(Printf.sprintf "ablate/store-buffer/%d" sb)
              (fun () -> A_sb (Workload.Collect_cell.store_buffer_one sb ~duration ~seed)))
          sb_buffers)
    (fun ctx ocs ->
      match values ocs with
      | A_tle (native, _) :: A_tle (tle, fallbacks) :: A_sandbox on :: A_sandbox off :: sbs
        ->
        ctx.emit
          {
            Obs.Table.title = "Ablation: TLE fallback (collect-update, period 2k)";
            xlabel = "mode";
            unit = "ops/us";
            columns = [ "throughput"; "lock fallbacks" ];
            rows =
              [
                ("native retry", [ Some native; Some 0.0 ]);
                ("TLE after 4 aborts", [ Some tle; Some (float_of_int fallbacks) ]);
              ];
          };
        Format.fprintf ctx.ppf
          "== Ablation: sandboxing (dangling dereference inside a transaction) ==@.";
        Format.fprintf ctx.ppf "sandboxed HTM:     %s@." on;
        Format.fprintf ctx.ppf "unsandboxed HTM:   %s@.@." off;
        ctx.emit
          {
            Obs.Table.title =
              "Ablation: store-buffer capacity (adaptive step discovery)";
            xlabel = "buffer";
            unit = "ops/us";
            columns = [ "collect throughput"; "largest step setting" ];
            rows =
              List.map2
                (fun sb piece ->
                  match piece with
                  | A_sb (thru, top_step) ->
                    ( string_of_int sb,
                      [ Some thru; Some (float_of_int top_step) ] )
                  | _ -> assert false)
                sb_buffers sbs;
          }
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Extension variants (paper §3.1.2 and §4.1, described but not
   implemented there)                                                  *)

type ext_piece =
  | E_thru of (int * string * float)
      (* row key, column, throughput: a starvation cell's churn period or a
         queue cell's thread count, and its algorithm *)
  | E_lat of Workload.Latency.result
  | E_coll of Workload.Collect_update.result

(* Michael-Scott reclaimed through a Dynamic Collect object vs the fixed
   hazard array: same discipline, dynamic announcement space. *)
let ext_queue_one ~duration ~seed ~threads name =
  let mk = Option.get (Hqueue.find_maker name) in
  let m = Workload.Driver.machine ~seed () in
  let ops = Workload.Queue_bench.coin_flip m mk ~threads ~prefill:0 ~duration ~seed in
  Workload.Driver.ops_per_us ~ops ~duration

let ext_starve_periods = [ 50_000; 20_000; 10_000; 5_000; 2_000; 1_000 ]
let ext_starve_makers = [ "ListFastCollect"; "ListFastCollectDeferred" ]
let ext_queue_threads = [ 2; 4; 8; 16 ]
let ext_queue_names = [ "MichaelScott+ROP"; "MichaelScott+Collect" ]
let ext_coll_periods = [ 100_000; 10_000; 2_000 ]
let ext_upd_variants = [ "ArrayDynAppendDereg"; "ArrayDynAppendFastUpd" ]

let ext =
  exp "ext" "paper-described but unimplemented variants" 300_000
    (fun ~duration ~seed ->
      List.concat_map
        (fun p ->
          List.map
            (fun name ->
              let mk = Option.get (Collect.find_maker name) in
              Runner.Cell.v ~label:(Printf.sprintf "ext/starve/%s/p%d" name p) (fun () ->
                  E_thru
                    ( p,
                      name,
                      Workload.Collect_cell.starvation_one mk ~churn_period:p ~duration ~seed )))
            ext_starve_makers)
        ext_starve_periods
      @ List.concat_map
          (fun threads ->
            List.map
              (fun name ->
                Runner.Cell.v ~label:(Printf.sprintf "ext/queue/%s/x%d" name threads)
                  (fun () ->
                    E_thru (threads, name, ext_queue_one ~duration ~seed ~threads name)))
              ext_queue_names)
          ext_queue_threads
      @ List.map
          (fun name ->
            let mk = Option.get (Collect.find_maker name) in
            Runner.Cell.v ~label:("ext/latency/" ^ name) (fun () ->
                E_lat (Workload.Latency.run_one mk ~handles:16 ~updates:2000 ~seed)))
          ext_upd_variants
      @ List.concat_map
          (fun period ->
            List.map
              (fun name ->
                let mk = Option.get (Collect.find_maker name) in
                Runner.Cell.v ~label:(Printf.sprintf "ext/collect/%s/p%d" name period)
                  (fun () ->
                    E_coll
                      (Workload.Collect_update.run_one mk ~updaters:15 ~period ~duration
                         ~step:(Collect.Intf.Fixed 32) ~seed)))
              ext_upd_variants)
          ext_coll_periods)
    (fun ctx ocs ->
      let vs = values ocs in
      let thru_table ~title ~xlabel ~label rows columns =
        Obs.Table.pivot ~title ~xlabel ~unit:"ops/us"
          ~rows:(List.map (fun r -> (label r, r)) rows)
          ~columns ~key:(fun (r, c, _) -> (r, c)) ~value:(fun (_, _, t) -> t)
          (List.filter_map (function E_thru t -> Some t | _ -> None) vs)
      in
      ctx.emit
        (thru_table
           ~title:
             "Extension: deferred-free FastCollect, 60 stable handles + 15 churning \
              (section 3.1.2)"
           ~xlabel:"churn period" ~label:Workload.Collect_update.period_label
           ext_starve_periods ext_starve_makers);
      ctx.emit
        (thru_table
           ~title:
             "Extension: reclamation via fixed hazard array vs Dynamic Collect (section \
              1.2)"
           ~xlabel:"threads" ~label:string_of_int ext_queue_threads ext_queue_names);
      ctx.emit
        { (Workload.Latency.to_table
             (List.filter_map (function E_lat r -> Some r | _ -> None) vs)) with
          title = "Extension: update latency of the section 4.1 variant" };
      ctx.emit
        (Workload.Collect_update.to_table
           ~title:"Extension: collect throughput of the section 4.1 variant"
           (List.filter_map (function E_coll r -> Some r | _ -> None) vs)))

(* ------------------------------------------------------------------ *)
(* The scaling study: the flat simulator core removes the Rock-era
   16-thread ceiling, so re-ask the paper's headline questions at 64, 128
   and 256 simulated threads on million-word heaps. Byte-deterministic
   like every other artifact experiment; EXPERIMENTS.md records which
   fig1/fig3 shapes survive the scale-up. *)

let scale =
  exp "scale" "the 16-256-thread scaling study (fig1/fig3 shapes)" 200_000
    (fun ~duration ~seed -> Workload.Scale_bench.cells ~duration ~seed ())
    (fun ctx ocs ->
      List.iter ctx.emit (Workload.Scale_bench.to_tables (values ocs)))

(* ------------------------------------------------------------------ *)
(* The malloc-placement ablation: the arena allocator's placement
   policies under a line-granularity HTM. Profiled, so the ping-pong
   (transfers) column in the tables is populated; the per-machine
   profiler tables stay out of the artifact (only emitted tables are
   compared), matching contend. *)

let placement =
  exp "placement" "malloc placement: arena policies vs aborts and ping-pong" 300_000
    ~profile:true
    (fun ~duration ~seed -> Workload.Placement_bench.cells ~duration ~seed ())
    (fun ctx ocs ->
      List.iter ctx.emit (Workload.Placement_bench.to_tables (values ocs)))

(* ------------------------------------------------------------------ *)

let all =
  [ fig1; latency; fig3; fig4; fig5; fig6; fig7; fig8; space; contend; chaos; fallback;
    memorder; aborts; ablate; ext; scale; placement ]

let find name = List.find_opt (fun e -> e.name = name) all

let cell_count e ~duration ~seed =
  match e.spec with Spec s -> List.length (s.cells ~duration ~seed)

(* Run one experiment end to end: build its canonical cells, execute them
   on up to [jobs] domains, fold the per-cell metrics into [absorb_into]
   in canonical order, then present.
   Returns the per-machine forensics aggregators (labelled, canonical
   cell order; empty unless [forensics] was set). *)
let run e ?(jobs = 1) ?(forensics = false) ?tracer ?absorb_into ?(times = false) ctx
    =
  match e.spec with
  | Spec s ->
    let cells = s.cells ~duration:ctx.duration ~seed:ctx.seed in
    let outcomes =
      Runner.Sweep.run ~jobs ~metrics:(absorb_into <> None) ~profile:e.profile
        ~forensics ?tracer cells
    in
    (match absorb_into with
    | Some reg -> Runner.Sweep.absorb ~into:reg outcomes
    | None -> ());
    s.present ctx outcomes;
    if times then Obs.Table.print ctx.ppf (Runner.Sweep.timing_table outcomes);
    Runner.Sweep.forensics outcomes
