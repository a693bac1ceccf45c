(** Figures 4–6: Collect throughput under concurrent Updates.

    One thread performs Collects back to back; [updaters] others each fire
    an Update every [period] cycles. The updaters register 64 handles total
    before measurement but each uses only its first handle, keeping the
    registered count independent of the thread count (paper §5.3). *)

type result = {
  algo : string;
  label : string;  (** algorithm + step annotation, for figure legends *)
  period : int;
  throughput : float;  (** collects per µs *)
  histogram : (int * int) list;  (** slots collected per step size (fig 6) *)
  commits : int;  (** HTM commits during the whole run *)
  aborts : int;  (** HTM aborts, all causes *)
}

let total_handles = 64

let step_label = function
  | Collect.Intf.Fixed n -> Printf.sprintf "step %d" n
  | Collect.Intf.Fixed_instrumented n -> Printf.sprintf "step %d (instr)" n
  | Collect.Intf.Adaptive -> "adapt"

(* Every abort, whatever its cause. *)
let total_aborts (st : Htm.stats) =
  st.aborts_conflict + st.aborts_overflow + st.aborts_illegal + st.aborts_explicit
  + st.aborts_lock + st.aborts_spurious

let run_one (maker : Collect.Intf.maker) ~updaters ~period ~duration ~step ~seed =
  let m =
    Driver.machine ~seed ~label:(Printf.sprintf "%s u%d" maker.algo_name updaters) ()
  in
  let threads = updaters + 1 in
  let cfg =
    { Collect.Intf.max_slots = total_handles * 2; num_threads = threads; step; min_size = 4 }
  in
  let deadline = Driver.warmup + duration in
  let quotas = Array.of_list (Driver.split_evenly total_handles updaters) in
  (* Measure only the steady state: registration-phase transactions
     (including resize helping) would pollute the abort telemetry. *)
  let collects, inst =
    Collect_cell.run m maker cfg ~deadline ~seed
      ~at_warmup:(fun () -> Htm.reset_stats m.htm)
      ~helper:(Collect_cell.updater ~deadline ~period (Array.get quotas))
  in
  let histogram = inst.step_histogram () in
  inst.destroy m.boot;
  let st = Htm.stats m.htm in
  {
    algo = maker.algo_name;
    label = Printf.sprintf "%s (%s)" maker.algo_name (step_label step);
    period;
    throughput = Driver.ops_per_us ~ops:collects ~duration;
    histogram;
    commits = st.commits;
    aborts = total_aborts st;
  }

(* Registration stampede: half the threads run collects back to back
   while the other half register fresh handles as fast as they can.
   Every collect's first transaction reads the list-head word before
   anything else and stays in flight for a whole telescoped traversal
   step, so each head insertion that commits mid-flight kills it at
   exactly that word — the paper's §3.1 header ping-pong expressed as
   transaction conflicts rather than mere coherence traffic, and the
   known truth [bench doctor contend] must attribute to the header
   line. Handles are never deregistered during the window ([destroy]
   reclaims them): unlink write-backs would spray conflicts across aged
   node lines and muddy the single-line story this cell isolates. *)
type churn_result = {
  churn_algo : string;
  churn_threads : int;
  churn_registers : int;  (** handles registered during the window *)
  churn_collects : int;  (** collects completed during the window *)
  churn_throughput : float;  (** registrations per µs *)
  churn_commits : int;
  churn_aborts : int;
}

let churn_one (maker : Collect.Intf.maker) ~threads ~duration ~seed =
  let m =
    Driver.machine ~seed ~label:(Printf.sprintf "%s churn%d" maker.algo_name threads) ()
  in
  let registrants = max 1 (threads / 2) in
  let collectors = max 1 (threads - registrants) in
  (* Bound on live handles: registrants churn flat out, one every ~250
     cycles at the very least. *)
  let bound = 64 + (2 * registrants * (duration / 250)) in
  let cfg =
    { Collect.Intf.max_slots = bound; num_threads = threads;
      step = Collect.Intf.Fixed 8; min_size = 4 }
  in
  let inst = maker.make m.htm m.boot cfg in
  let deadline = Driver.warmup + duration in
  let registers = Array.make registrants 0 in
  let collects = Array.make collectors 0 in
  let registrant i ctx =
    registers.(i) <-
      Driver.measured_loop ctx ~deadline (fun () ->
          ignore (inst.register ctx (Driver.fresh_value ())))
  in
  let collector i ctx =
    let buf = Sim.Ibuf.create ~capacity:bound () in
    collects.(i) <-
      Driver.measured_loop ctx ~deadline (fun () ->
          Sim.Ibuf.clear buf;
          inst.collect ctx buf)
  in
  let bodies =
    Array.init threads (fun i ->
        if i < collectors then collector i else registrant (i - collectors))
  in
  Sim.run ~seed bodies;
  inst.destroy m.boot;
  let st = Htm.stats m.htm in
  {
    churn_algo = maker.algo_name;
    churn_threads = threads;
    churn_registers = Array.fold_left ( + ) 0 registers;
    churn_collects = Array.fold_left ( + ) 0 collects;
    churn_throughput =
      Driver.ops_per_us ~ops:(Array.fold_left ( + ) 0 registers) ~duration;
    churn_commits = st.commits;
    churn_aborts = total_aborts st;
  }

let default_periods =
  [ 1_000_000; 500_000; 200_000; 100_000; 50_000; 20_000; 10_000;
    8_000; 6_000; 4_000; 2_000; 1_000; 800; 600; 400 ]

(* The Figure 4 line-up: the four telescoping algorithms adaptively
   stepped, plus the two whose collects use no transactions. *)
let fig4_algos () =
  List.filter_map
    (fun name -> Collect.find_maker name)
    [ "ArrayDynAppendDereg"; "ArrayStatAppendDereg"; "ListFastCollect";
      "ArrayDynSearchResize"; "ArrayStatSearchNo"; "StaticBaseline" ]

(* One cell per (period x algorithm), in canonical sweep order. *)
let cells_fig4 ?(updaters = 15) ?(periods = default_periods) ?(duration = 400_000)
    ?(seed = 41) () =
  List.concat_map
    (fun period ->
      List.map
        (fun (mk : Collect.Intf.maker) ->
          let step =
            if mk.uses_htm then Collect.Intf.Adaptive else Collect.Intf.Fixed 1
          in
          Runner.Cell.v ~label:(Printf.sprintf "fig4/%s/p%d" mk.algo_name period) (fun () ->
              run_one mk ~updaters ~period ~duration ~step ~seed))
        (fig4_algos ()))
    periods

(* Figure 5: fixed steps 8/16/32, the adaptive controller, and "Best
   (adapt cost)" — the best instrumented fixed step per period. *)
let fig5_steps = [ 8; 16; 32 ]
let fig5_best_candidates = [ 4; 8; 16; 32 ]

(* The fig-5 step line-up per period: the plotted fixed steps, the
   instrumented candidates "Best (adapt cost)" is folded from, then the
   adaptive controller. *)
let fig5_cell_steps () =
  List.map (fun s -> Collect.Intf.Fixed s) fig5_steps
  @ List.map (fun s -> Collect.Intf.Fixed_instrumented s) fig5_best_candidates
  @ [ Collect.Intf.Adaptive ]

(* One cell per (period x step policy), in canonical sweep order.
   {!fig5_collate} reduces the raw results to the plotted series. *)
let cells_fig5 ?(updaters = 15) ?(periods = default_periods) ?(duration = 400_000)
    ?(seed = 51) () =
  let maker = Option.get (Collect.find_maker "ArrayDynAppendDereg") in
  List.concat_map
    (fun period ->
      List.map
        (fun step ->
          Runner.Cell.v
            ~label:(Printf.sprintf "fig5/%s/p%d" (step_label step) period)
            (fun () -> run_one maker ~updaters ~period ~duration ~step ~seed))
        (fig5_cell_steps ()))
    periods

(* Collate raw fig-5 cell results (in cell order) into the plotted series:
   per period, the fixed steps, then "Best (adapt cost)" — the best
   instrumented candidate — then the adaptive run. *)
let fig5_collate results =
  let stride = List.length (fig5_cell_steps ()) in
  let nfixed = List.length fig5_steps in
  let arr = Array.of_list results in
  let periods = Array.length arr / stride in
  List.concat
    (List.init periods (fun p ->
         let at i = arr.((p * stride) + i) in
         let fixed = List.init nfixed at in
         let period = (at 0).period in
         let best =
           List.init (List.length fig5_best_candidates) (fun i -> at (nfixed + i))
           |> List.fold_left (fun acc r -> if r.throughput > acc.throughput then r else acc)
                { algo = ""; label = ""; period; throughput = neg_infinity; histogram = [];
                  commits = 0; aborts = 0 }
         in
         fixed @ [ { best with label = "Best (adapt cost)" }; at (stride - 1) ]))

(* Figure 6: step-size usage distribution of the adaptive controller. *)
let cells_fig6 ?(updaters = 15)
    ?(periods = [ 8_000; 6_000; 4_000; 2_000; 1_000; 800; 600; 400 ]) ?(duration = 400_000)
    ?(seed = 61) () =
  let maker = Option.get (Collect.find_maker "ArrayDynAppendDereg") in
  List.map
    (fun period ->
      Runner.Cell.v ~label:(Printf.sprintf "fig6/adapt/p%d" period) (fun () ->
          run_one maker ~updaters ~period ~duration ~step:Collect.Intf.Adaptive ~seed))
    periods

let period_label p = if p >= 1000 then Printf.sprintf "%dk" (p / 1000) else string_of_int p

let distinct_in_order labels =
  List.fold_left (fun acc l -> if List.mem l acc then acc else acc @ [ l ]) [] labels

let to_table ~title results =
  let periods =
    List.sort_uniq (fun a b -> Int.compare b a) (List.map (fun r -> r.period) results)
  in
  Obs.Table.pivot ~title ~xlabel:"period" ~unit:"ops/us"
    ~rows:(List.map (fun p -> (period_label p, p)) periods)
    ~columns:(distinct_in_order (List.map (fun r -> r.label) results))
    ~key:(fun r -> (r.period, r.label))
    ~value:(fun r -> r.throughput) results

let fig6_table results =
  let steps = [ 1; 2; 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun r ->
        let total = List.fold_left (fun a (_, n) -> a + n) 0 r.histogram in
        ( period_label r.period,
          List.map
            (fun s ->
              let n = Option.value ~default:0 (List.assoc_opt s r.histogram) in
              if total = 0 then None else Some (100.0 *. float_of_int n /. float_of_int total))
            steps ))
      results
  in
  {
    Obs.Table.title = "Figure 6: Step-size distribution (ArrayDynAppendDereg, adaptive)";
    xlabel = "period";
    unit = "% of slots";
    columns = List.map (fun s -> Printf.sprintf "step%d" s) steps;
    rows;
  }
