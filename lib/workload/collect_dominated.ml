(** Figure 3: the Collect-dominated mixed workload.

    Threads draw operations with distribution Collect 90 %, Update 8 %,
    Register 1 %, DeRegister 1 %. Each thread owns a queue of at most
    [64/n] slots; 32 slots total are registered before measurement.
    Register is ignored when the thread's queue is full, Update/DeRegister
    when it is empty; Update stores to the least-recently-used slot. *)

type result = { algo : string; threads : int; throughput : float }

let total_budget = 64
let initial_registered = 32

let mix (m : Driver.machine) (maker : Collect.Intf.maker) ~threads ~budget ~per_thread
    ~pre_registered ~step ~duration ~seed =
  let cfg = { Collect.Intf.max_slots = budget; num_threads = threads; step; min_size = 4 } in
  let inst = maker.make m.htm m.boot cfg in
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          let slots = Queue.create () in
          for _ = 1 to pre_registered do
            Queue.add (inst.register ctx (Driver.fresh_value ())) slots
          done;
          let buf = Sim.Ibuf.create ~capacity:budget () in
          let rng = Sim.rng ctx in
          Sim.advance_to ctx Driver.warmup;
          while Sim.clock ctx < deadline do
            let dice = Sim.Rng.int rng 100 in
            let performed =
              if dice < 90 then begin
                Driver.tick_dispatch ctx;
                Sim.Ibuf.clear buf;
                inst.collect ctx buf;
                true
              end
              else if dice < 98 then begin
                if Queue.is_empty slots then false
                else begin
                  Driver.tick_dispatch ctx;
                  let h = Queue.pop slots in
                  inst.update ctx h (Driver.fresh_value ());
                  Queue.add h slots;
                  true
                end
              end
              else if dice < 99 then begin
                if Queue.length slots >= per_thread then false
                else begin
                  Driver.tick_dispatch ctx;
                  Queue.add (inst.register ctx (Driver.fresh_value ())) slots;
                  true
                end
              end
              else if Queue.is_empty slots then false
              else begin
                Driver.tick_dispatch ctx;
                inst.deregister ctx (Queue.pop slots);
                true
              end
            in
            if performed then ops.(i) <- ops.(i) + 1 else Sim.tick ctx 20
          done;
          Queue.iter (fun h -> inst.deregister ctx h) slots)
  in
  Sim.run ~seed bodies;
  inst.destroy m.boot;
  Array.fold_left ( + ) 0 ops

let run_one (maker : Collect.Intf.maker) ~threads ~duration ~step ~seed =
  let m =
    Driver.machine ~seed ~label:(Printf.sprintf "%s x%d" maker.algo_name threads) ()
  in
  let ops =
    mix m maker ~threads ~budget:total_budget ~per_thread:(max 1 (total_budget / threads))
      ~pre_registered:(max 1 (initial_registered / threads)) ~step ~duration ~seed
  in
  { algo = maker.algo_name; threads; throughput = Driver.ops_per_us ~ops ~duration }

let default_threads = [ 2; 4; 6; 8; 10; 12; 14; 16 ]

(* One cell per (thread count x algorithm), in canonical sweep order. *)
let cells ?(makers = Collect.all) ?(threads = default_threads) ?(duration = 400_000)
    ?(step = Collect.Intf.Fixed 32) ?(seed = 31) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (mk : Collect.Intf.maker) ->
          Runner.Cell.v ~label:(Printf.sprintf "fig3/%s/x%d" mk.algo_name n) (fun () ->
              run_one mk ~threads:n ~duration ~step ~seed))
        makers)
    threads

let to_table ?(makers = Collect.all) results =
  let threads = List.sort_uniq Int.compare (List.map (fun r -> r.threads) results) in
  Obs.Table.pivot ~title:"Figure 3: Collect-dominated workload (step 32)" ~xlabel:"threads"
    ~unit:"ops/us"
    ~rows:(List.map (fun n -> (string_of_int n, n)) threads)
    ~columns:(List.map (fun (m : Collect.Intf.maker) -> m.algo_name) makers)
    ~key:(fun r -> (r.threads, r.algo))
    ~value:(fun r -> r.throughput) results
