(* The layer ladder: micro loops that call one layer's public functions
   directly, normalised to host nanoseconds per event. Each rung builds
   its machine outside the timed interval, times one [Sim.run] of [n]
   iterations, and counts its events with the layers' own counters. *)

type batch = {
  mem : Simmem.t option;  (** counters are read from this machine *)
  htm : Htm.t option;
  bodies : (Sim.tctx -> unit) array;
  events : Probe.counters -> int;  (** the rung's events, from the counter delta *)
}

type rung = { name : string; prepare : int -> batch  (** [n] iterations *) }

type cost = {
  ns : float;  (** median host ns per event *)
  delta : Probe.counters;  (** counter delta of one timed batch *)
  events : int;  (** events in that batch *)
}

(* Scheduler: [width] fibers on distinct clocks (fiber [i] starts at
   [i + 1]) each tick by [width] cycles [n] times, so every tick passes
   all the others and hands over to the next fiber with no clock ties,
   as in a cell whose dispatch costs carry jitter. Events: switches. *)
let switch_rung width =
  {
    name = Printf.sprintf "sim.ns_per_switch.w%d" width;
    prepare =
      (fun n ->
        {
          mem = None;
          htm = None;
          bodies =
            Array.init width (fun i ctx ->
                Sim.tick ctx (i + 1);
                for _ = 1 to n do
                  Sim.tick ctx width
                done);
          events = (fun d -> d.Probe.switches);
        });
  }

(* A single fiber on a fresh machine: [body mem htm boot n] builds its
   loop, [events n delta] counts what it did. *)
let solo_rung name ?htm_config ?model ?(alloc = Simmem.Shared_lifo) ~events body =
  {
    name;
    prepare =
      (fun n ->
        let mem = Simmem.create ?model ~alloc () in
        let htm = Htm.create ?config:htm_config mem in
        let boot = Sim.boot ~seed:1 () in
        let f = body mem htm boot n in
        { mem = Some mem; htm = Some htm; bodies = [| f |]; events = events n });
  }

let counted f _ d = f d

let read_rung =
  solo_rung "simmem.ns_per_read" ~events:(counted (fun d -> d.Probe.reads)) (fun mem _ boot n ->
      let b = Simmem.malloc mem boot 64 in
      fun ctx ->
        for i = 1 to n do
          ignore (Simmem.read mem ctx (b + (i land 63)))
        done)

let write_rung =
  solo_rung "simmem.ns_per_write" ~events:(counted (fun d -> d.Probe.writes)) (fun mem _ boot n ->
      let b = Simmem.malloc mem boot 64 in
      fun ctx ->
        for i = 1 to n do
          Simmem.write mem ctx (b + (i land 63)) i
        done)

let cas_rung =
  solo_rung "simmem.ns_per_cas" ~events:(counted (fun d -> d.Probe.atomics)) (fun mem _ boot n ->
      let b = Simmem.malloc mem boot 1 in
      fun ctx ->
        for i = 1 to n do
          ignore (Simmem.cas mem ctx b ~expected:(i - 1) ~desired:i)
        done)

(* Two-word blocks: the queue-node size class. Events: malloc+free pairs. *)
let malloc_free_rung label alloc =
  solo_rung ("simmem.ns_per_malloc_free." ^ label) ~alloc
    ~events:(counted (fun d -> d.Probe.allocs))
    (fun mem _ _ n ctx ->
      for _ = 1 to n do
        Simmem.free mem ctx (Simmem.malloc mem ctx 2)
      done)

(* [sb]: four buffered stores, then a fence drains them. Events: stores. *)
let drain_rung =
  solo_rung "simmem.ns_per_drained_store" ~model:Sim.Memmodel.sb
    ~events:(counted (fun d -> d.Probe.writes))
    (fun mem _ boot n ->
      let b = Simmem.malloc mem boot 4 in
      fun ctx ->
        for i = 1 to n do
          Simmem.write mem ctx (b + (i land 3)) i;
          if i land 3 = 0 then Sim.fence ctx
        done)

let tx_loop htm n tx_body ctx =
  for _ = 1 to n do
    Htm.atomic htm ctx tx_body
  done

let r1w1_rung =
  solo_rung "htm.ns_per_tx.r1w1" ~events:(counted (fun d -> d.Probe.hw_attempts))
    (fun mem htm boot n ->
      let a = Simmem.malloc mem boot 1 in
      tx_loop htm n (fun tx -> Htm.write tx a (Htm.read tx a + 1)))

let r32_rung =
  solo_rung "htm.ns_per_tx.r32" ~events:(counted (fun d -> d.Probe.hw_attempts))
    (fun mem htm boot n ->
      let b = Simmem.malloc mem boot 32 in
      tx_loop htm n (fun tx ->
          for j = 0 to 31 do
            ignore (Htm.read tx (b + j))
          done))

(* [Stm_after 0]: every transaction runs on the software path. *)
let stm_rung =
  solo_rung "stm.ns_per_tx.w48"
    ~htm_config:{ Htm.default_config with stm = Htm.Stm_after 0 }
    ~events:(counted (fun d -> d.Probe.stm_attempts))
    (fun mem htm boot n ->
      let b = Simmem.malloc mem boot 48 in
      tx_loop htm n (fun tx ->
          for j = 0 to 47 do
            Htm.write tx (b + j) j
          done))

(* One x1 operation: alternate enqueue and dequeue on a queue prefilled
   with 64. Events: operations, two per iteration. *)
let queue_rung label name =
  let maker = Option.get (Hqueue.find_maker name) in
  solo_rung ("hqueue.ns_per_op." ^ label) ~events:(fun n _ -> 2 * n) (fun _ htm boot n ->
      let q = maker.make htm boot ~num_threads:1 in
      for v = 1 to 64 do
        q.enqueue boot v
      done;
      fun ctx ->
        for v = 1 to n do
          q.enqueue ctx v;
          ignore (q.dequeue_drop ctx)
        done)

(* One collect over 64 handles, registered by the same fiber before the
   loop, with the step policy the collect-update workload uses. Events:
   collects. *)
let collect_rung label name step =
  let maker = Option.get (Collect.find_maker name) in
  solo_rung ("collect.ns_per_collect64." ^ label) ~events:(fun n _ -> n) (fun _ htm boot n ->
      let cfg = { Collect.Intf.max_slots = 128; num_threads = 1; step; min_size = 4 } in
      let inst = maker.make htm boot cfg in
      let buf = Sim.Ibuf.create ~capacity:128 () in
      fun ctx ->
        for v = 1 to 64 do
          ignore (inst.register ctx v)
        done;
        for _ = 1 to n do
          Sim.Ibuf.clear buf;
          inst.collect ctx buf
        done)

let rungs =
  [
    switch_rung 2; switch_rung 16; switch_rung 256;
    read_rung; write_rung; cas_rung;
    malloc_free_rung "shared-lifo" Simmem.Shared_lifo;
    malloc_free_rung "arena" (Simmem.Arena Simmem.Line_isolated);
    drain_rung; r1w1_rung; r32_rung; stm_rung;
    queue_rung "htm" "HTM"; queue_rung "ms" "MichaelScott";
    queue_rung "ms-rop" "MichaelScott+ROP"; queue_rung "ms-ebr" "MichaelScott+EBR";
    collect_rung "array-dyn-append-dereg" "ArrayDynAppendDereg" Collect.Intf.Adaptive;
    collect_rung "list-fast-collect" "ListFastCollect" (Collect.Intf.Fixed 32);
  ]

let names = List.map (fun r -> r.name) rungs

(* The [q]-quantile of [xs], interpolating linearly between ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* One timed batch: seconds, events and counter delta. *)
let time rung n =
  let b = rung.prepare n in
  let before = Probe.snapshot b.mem b.htm in
  let t0 = Probe.now_ns () in
  Sim.run ~seed:1 b.bodies;
  let dt = float_of_int (Probe.now_ns () - t0) /. 1e9 in
  let delta = Probe.diff (Probe.snapshot b.mem b.htm) before in
  (dt, b.events delta, delta)

(* Grow [n] until one batch lasts a fifth of [budget_s], then time five
   batches of that size and take the median ns per event. *)
let measure ~budget_s rung =
  let slice = budget_s /. 5. in
  let rec calibrate n =
    let dt, _, _ = time rung n in
    if dt >= slice /. 4. || n >= 1 lsl 24 then
      max 1 (int_of_float (float_of_int n *. slice /. Float.max dt 1e-6))
    else calibrate (n * 4)
  in
  let n = calibrate 16 in
  let runs = List.init 5 (fun _ -> time rung n) in
  let _, events, delta = List.hd runs in
  {
    ns = median (List.map (fun (dt, ev, _) -> dt *. 1e9 /. float_of_int (max 1 ev)) runs);
    delta;
    events;
  }
