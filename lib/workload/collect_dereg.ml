(** Figure 7: Collect throughput under concurrent Register/DeRegister
    churn. One collector; each of the other threads cycles its slots:
    deregister one, wait [register_period] (fixed at 20 000 cycles),
    register a replacement, wait [dereg_period] (the x-axis), repeat.
    64 slots are registered initially, so at any time at most 64 are
    live. *)

type result = { algo : string; label : string; dereg_period : int; throughput : float }

let total_handles = 64
let register_period = 20_000

let run_one (maker : Collect.Intf.maker) ~churners ~dereg_period ~duration ~step ~seed =
  let m =
    Driver.machine ~seed ~label:(Printf.sprintf "%s c%d" maker.algo_name churners) ()
  in
  let threads = churners + 1 in
  let cfg =
    { Collect.Intf.max_slots = total_handles * 2; num_threads = threads; step; min_size = 4 }
  in
  let deadline = Driver.warmup + duration in
  let quotas = Array.of_list (Driver.split_evenly total_handles churners) in
  let churner (inst : Collect.Intf.instance) i ctx =
    let slots = Queue.create () in
    for _ = 1 to quotas.(i) do
      Queue.add (inst.register ctx (Driver.fresh_value ())) slots
    done;
    (* The threads start the experiment by first deregistering a slot. *)
    let next = ref Driver.warmup in
    while !next < deadline do
      Sim.advance_to ctx !next;
      if not (Queue.is_empty slots) then begin
        Driver.tick_dispatch ctx;
        inst.deregister ctx (Queue.pop slots)
      end;
      Sim.advance_to ctx (!next + register_period);
      Driver.tick_dispatch ctx;
      Queue.add (inst.register ctx (Driver.fresh_value ())) slots;
      next := !next + register_period + dereg_period
    done;
    List.of_seq (Queue.to_seq slots)
  in
  let collects, inst = Collect_cell.run m maker cfg ~deadline ~seed ~helper:churner in
  inst.destroy m.boot;
  {
    algo = maker.algo_name;
    label =
      Printf.sprintf "%s (%s)" maker.algo_name (Collect_update.step_label step);
    dereg_period;
    throughput = Driver.ops_per_us ~ops:collects ~duration;
  }

let default_periods =
  [ 1_000_000; 500_000; 200_000; 100_000; 50_000; 20_000; 10_000; 8_000; 6_000; 4_000;
    2_000; 1_000 ]

let fig7_algos () = Collect_update.fig4_algos ()

(* One cell per (dereg period x algorithm), in canonical sweep order. *)
let cells ?makers ?(churners = 15) ?(periods = default_periods) ?(duration = 400_000)
    ?(seed = 71) () =
  let makers = match makers with Some ms -> ms | None -> fig7_algos () in
  List.concat_map
    (fun dereg_period ->
      List.map
        (fun (mk : Collect.Intf.maker) ->
          let step = if mk.uses_htm then Collect.Intf.Fixed 32 else Collect.Intf.Fixed 1 in
          Runner.Cell.v
            ~label:(Printf.sprintf "fig7/%s/p%d" mk.algo_name dereg_period)
            (fun () -> run_one mk ~churners ~dereg_period ~duration ~step ~seed))
        makers)
    periods

let to_table results =
  let periods =
    List.sort_uniq (fun a b -> Int.compare b a) (List.map (fun r -> r.dereg_period) results)
  in
  Obs.Table.pivot ~title:"Figure 7: Collect-(De)Register" ~xlabel:"dereg period"
    ~unit:"ops/us"
    ~rows:(List.map (fun p -> (Collect_update.period_label p, p)) periods)
    ~columns:(Collect_update.distinct_in_order (List.map (fun r -> r.label) results))
    ~key:(fun r -> (r.dereg_period, r.label))
    ~value:(fun r -> r.throughput) results
