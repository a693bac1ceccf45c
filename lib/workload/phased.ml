(** Figure 8: Collect performance as the number of registered slots varies
    over time. One collector; the updaters (update period 20 000 cycles)
    alternately raise the registered-slot total from [low] to [high] and
    back at every phase boundary. Collect completions are bucketed over
    time, showing which algorithms adapt to the registered count — and
    that ArrayStatSearchNo never recovers because its scan length is the
    historical maximum.

    The paper's 500 ms phases are virtually rescaled (500 ms of Rock time
    would be ~10⁹ simulated cycles); the phenomenon only needs phases long
    enough to contain many collects. *)

type result = {
  algo : string;
  buckets : (float * float) list;  (** (time in ms, collects per µs) *)
}

let low_slots = 16
let high_slots = 64
let update_period = 20_000

let run_one (maker : Collect.Intf.maker) ~updaters ~phase_len ~phases ~bucket_len ~step ~seed =
  let m =
    Driver.machine ~seed ~label:(Printf.sprintf "%s u%d" maker.algo_name updaters) ()
  in
  let threads = updaters + 1 in
  let cfg =
    { Collect.Intf.max_slots = high_slots * 2; num_threads = threads; step; min_size = 4 }
  in
  let duration = phase_len * phases in
  let deadline = Driver.warmup + duration in
  let nbuckets = (duration + bucket_len - 1) / bucket_len in
  let bucket_counts = Array.make nbuckets 0 in
  let low_quota = Array.of_list (Driver.split_evenly low_slots updaters) in
  let high_quota = Array.of_list (Driver.split_evenly high_slots updaters) in
  let target_quota i now =
    let phase = (now - Driver.warmup) / phase_len in
    if phase mod 2 = 0 then low_quota.(i) else high_quota.(i)
  in
  let bucket ctx =
    let b = (Sim.clock ctx - Driver.warmup) / bucket_len in
    if b >= 0 && b < nbuckets then bucket_counts.(b) <- bucket_counts.(b) + 1
  in
  let updater (inst : Collect.Intf.instance) i ctx =
    let slots = Queue.create () in
    let adjust () =
      let target = target_quota i (Sim.clock ctx) in
      while Queue.length slots < target do
        Queue.add (inst.register ctx (Driver.fresh_value ())) slots
      done;
      while Queue.length slots > target do
        inst.deregister ctx (Queue.pop slots)
      done
    in
    (* initial phase-0 population *)
    for _ = 1 to low_quota.(i) do
      Queue.add (inst.register ctx (Driver.fresh_value ())) slots
    done;
    Driver.periodic_loop ctx ~deadline ~period:update_period (fun () ->
        adjust ();
        if not (Queue.is_empty slots) then begin
          let h = Queue.pop slots in
          inst.update ctx h (Driver.fresh_value ());
          Queue.add h slots
        end);
    List.of_seq (Queue.to_seq slots)
  in
  let _, inst =
    Collect_cell.run m maker cfg ~deadline ~seed ~after_collect:bucket ~helper:updater
  in
  inst.destroy m.boot;
  let bucket_us = float_of_int bucket_len /. float_of_int Driver.cycles_per_us in
  let buckets =
    List.init nbuckets (fun b ->
        ( float_of_int (b * bucket_len) /. float_of_int Driver.cycles_per_us /. 1000.0,
          float_of_int bucket_counts.(b) /. bucket_us ))
  in
  { algo = maker.algo_name; buckets }

let fig8_algos () =
  List.filter_map Collect.find_maker
    [ "ArrayStatAppendDereg"; "ArrayDynAppendDereg"; "ListFastCollect";
      "ArrayStatSearchNo"; "StaticBaseline" ]

(* One cell per algorithm, in canonical sweep order. *)
let cells ?(updaters = 15) ?(phase_len = 1_000_000) ?(phases = 6) ?(bucket_len = 200_000)
    ?(seed = 81) () =
  List.map
    (fun (mk : Collect.Intf.maker) ->
      let step = if mk.uses_htm then Collect.Intf.Fixed 32 else Collect.Intf.Fixed 1 in
      Runner.Cell.v ~label:(Printf.sprintf "fig8/%s" mk.algo_name) (fun () ->
          run_one mk ~updaters ~phase_len ~phases ~bucket_len ~step ~seed))
    (fig8_algos ())

let to_table results =
  let columns = List.map (fun r -> r.algo) results in
  let xs =
    match results with [] -> [] | r :: _ -> List.map fst r.buckets
  in
  let rows =
    List.mapi
      (fun bi x ->
        ( Printf.sprintf "%.1f" x,
          List.map (fun r -> Some (snd (List.nth r.buckets bi))) results ))
      xs
  in
  {
    Obs.Table.title = "Figure 8: Collect throughput vs time (slots alternate 16 <-> 64)";
    xlabel = "time ms";
    unit = "ops/us";
    columns;
    rows;
  }
