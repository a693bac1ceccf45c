(* The collect cell (paper §5.3): one thread collects back to back while
   the others run a helper role. A helper returns the handles it still
   holds, and the cell keeps them registered until the collector's
   measurement ends, so the registered count stays what the role made it
   for the whole window; then it deregisters them in the order given. The
   caller decides whether the instance is destroyed: the §6 ablations
   count every free in their artifact and never destroy. *)

type helper = Collect.Intf.instance -> int -> Sim.tctx -> Collect.Intf.handle list

let run ?at_warmup ?(after_collect = ignore) (m : Driver.machine)
    (maker : Collect.Intf.maker) (cfg : Collect.Intf.cfg) ~deadline ~seed
    ~(helper : helper) =
  let inst = maker.make m.htm m.boot cfg in
  let collects = ref 0 in
  let measuring = ref true in
  let collector ctx =
    let buf = Sim.Ibuf.create ~capacity:cfg.max_slots () in
    Option.iter
      (fun f ->
        Sim.advance_to ctx Driver.warmup;
        f ())
      at_warmup;
    collects :=
      Driver.measured_loop ctx ~deadline (fun () ->
          Sim.Ibuf.clear buf;
          inst.collect ctx buf;
          after_collect ctx);
    measuring := false
  in
  let holder i ctx =
    let held = helper inst i ctx in
    while !measuring do
      Sim.tick ctx 2000
    done;
    List.iter (inst.deregister ctx) held
  in
  Sim.run ~seed
    (Array.init cfg.num_threads (fun i -> if i = 0 then collector else holder (i - 1)));
  (!collects, inst)

let updater ~deadline ?period quota (inst : Collect.Intf.instance) i ctx =
  let handles = List.init (quota i) (fun _ -> inst.register ctx (Driver.fresh_value ())) in
  (match (handles, period) with
  | h :: _, Some period ->
    Driver.periodic_loop ctx ~deadline ~period (fun () ->
        inst.update ctx h (Driver.fresh_value ()))
  | _ -> ());
  handles

(* ------------------------------------------------------------------ *)
(* The cells that only [bench ablate] and [bench ext] sweep.           *)

let ada () = Option.get (Collect.find_maker "ArrayDynAppendDereg")

(* TLE: the paper notes the algorithms can run without any transactional
   progress guarantee by falling back to a lock (§6). Compare native
   retry against TLE fallback under contention. *)
let tle_one ~htm_config ~duration ~seed =
  let m = Driver.machine ~htm_config ~seed () in
  let cfg =
    { Collect.Intf.max_slots = 128; num_threads = 16; step = Collect.Intf.Fixed 16;
      min_size = 4 }
  in
  let deadline = Driver.warmup + duration in
  let collects, _ =
    run m (ada ()) cfg ~deadline ~seed
      ~helper:(updater ~deadline ~period:2_000 (fun _ -> 4))
  in
  (Driver.ops_per_us ~ops:collects ~duration, (Htm.stats m.htm).lock_fallbacks)

(* Store-buffer capacity sweep: the adaptive controller must discover the
   largest step each buffer admits. *)
let store_buffer_one sb ~duration ~seed =
  let m = Driver.machine ~htm_config:{ Htm.default_config with store_buffer = sb } ~seed () in
  let cfg =
    { Collect.Intf.max_slots = 128; num_threads = 2; step = Collect.Intf.Adaptive;
      min_size = 4 }
  in
  let deadline = Driver.warmup + duration in
  let collects, inst =
    run m (ada ()) cfg ~deadline ~seed ~helper:(updater ~deadline (fun _ -> 64))
  in
  let top_step = List.fold_left (fun acc (s, _) -> max acc s) 0 (inst.step_histogram ()) in
  (Driver.ops_per_us ~ops:collects ~duration, top_step)

(* The §3.1.2 starvation scenario: a large stable handle population keeps
   collects long, while churners rapidly cycle one volatile slot each.
   Plain FastCollect restarts on every deregister anywhere; the deferred
   variant restarts only when its own cursor's node is hit. *)
let starvation_one maker ~churn_period ~duration ~seed =
  let m = Driver.machine ~seed () in
  let cfg =
    { Collect.Intf.max_slots = 256; num_threads = 16; step = Collect.Intf.Adaptive;
      min_size = 4 }
  in
  let deadline = Driver.warmup + duration in
  let churner (inst : Collect.Intf.instance) _ ctx =
    let stable = List.init 4 (fun _ -> inst.register ctx (Driver.fresh_value ())) in
    let volatile = ref (inst.register ctx (Driver.fresh_value ())) in
    let next = ref Driver.warmup in
    while !next < deadline do
      Sim.advance_to ctx !next;
      inst.deregister ctx !volatile;
      Sim.advance_to ctx (!next + (churn_period / 2));
      volatile := inst.register ctx (Driver.fresh_value ());
      next := !next + churn_period
    done;
    !volatile :: stable
  in
  let collects, inst = run m maker cfg ~deadline ~seed ~helper:churner in
  inst.destroy m.boot;
  Driver.ops_per_us ~ops:collects ~duration
