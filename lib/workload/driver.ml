(** Shared machinery for the paper's microbenchmarks.

    Virtual time is reported at {!cycles_per_us} cycles per microsecond
    (a 2 GHz clock, the Rock ballpark), which is how the figures' "cycles"
    x-axes and "ops/µs" y-axes are produced. Every benchmark thread
    executes setup, waits until the common measurement start time
    {!warmup}, and counts the operations it completes before the deadline.
    [op_dispatch], 200 cycles, models the per-operation harness cost
    (loop, dispatch, rng) that dominates the paper's absolute latencies. *)

let cycles_per_us = 2000
let op_dispatch = 200
let warmup = 1_000_000

type machine = { mem : Simmem.t; htm : Htm.t; boot : Sim.tctx }

(* Observability for the whole harness run. Workloads build machines
   internally, so the benchmark front-end cannot thread sinks through
   their signatures; instead it installs them here once and every machine
   built afterwards attaches itself: a tracer process per machine, the
   shared aggregate metrics registry as parent, and (when profiling) a
   fresh contention profiler per machine, logged under the machine's
   label for the report. *)
type obs = {
  obs_tracer : Obs.Tracer.t option;
  obs_metrics : Obs.Metrics.t option;
  obs_profile : bool;
  obs_forensics : bool;
}

let no_obs =
  { obs_tracer = None; obs_metrics = None; obs_profile = false;
    obs_forensics = false }

(* All ambient harness state is domain-local: the sweep runner
   ({!Runner.Sweep}) executes benchmark cells on worker domains, each of
   which installs its own sinks and value supply without racing any
   other. The runner's hooks (registered below) reset this state before
   every cell, which is what makes a cell's result independent of which
   domain ran it and what ran before — the determinism contract behind
   [bench all --jobs N]. *)
type state = {
  mutable st_obs : obs;
  mutable st_seq : int;
  mutable st_profs : (string * Obs.Profiler.t) list;
  mutable st_fors : (string * Obs.Forensics.t) list;
  mutable st_value : int;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_obs = no_obs; st_seq = 0; st_profs = []; st_fors = []; st_value = 0 })

let state () = Domain.DLS.get state_key

let set_obs o =
  let st = state () in
  st.st_obs <- o;
  st.st_seq <- 0;
  st.st_profs <- [];
  st.st_fors <- [];
  Sim.set_default_observer None

let obs () = (state ()).st_obs
let profilers () = List.rev (state ()).st_profs
let forensics () = List.rev (state ()).st_fors

let machine ?(htm_config = Htm.default_config) ?(seed = 1) ?label ?threads
    ?heap_words ?alloc () =
  let st = state () in
  let o = st.st_obs in
  st.st_seq <- st.st_seq + 1;
  let name =
    match label with Some l -> l | None -> Printf.sprintf "machine-%d" st.st_seq
  in
  let mem =
    Simmem.create ?metrics:o.obs_metrics ?threads ?initial_words:heap_words
      ?alloc ()
  in
  let tracer = Option.map (fun tr -> Obs.Tracer.process tr ~name) o.obs_tracer in
  let profiler = if o.obs_profile then Some (Obs.Profiler.create ()) else None in
  let forensics = if o.obs_forensics then Some (Obs.Forensics.create ()) else None in
  Option.iter (fun p -> st.st_profs <- (name, p) :: st.st_profs) profiler;
  Option.iter (fun f -> st.st_fors <- (name, f) :: st.st_fors) forensics;
  Simmem.attach mem
    (List.filter_map Fun.id
       [
         Option.map Simmem.tracer_sink tracer;
         Option.map Simmem.profiler_sink profiler;
         Option.map Simmem.forensics_sink forensics;
       ]);
  Sim.set_default_observer (Simmem.observer mem);
  let htm = Htm.create ~config:htm_config ?metrics:o.obs_metrics mem in
  { mem; htm; boot = Sim.boot ~seed () }

(* Unique non-zero values within a run: the spec checker relies on every
   bound value identifying one Register/Update event. Domain-local, and
   reset per cell by the sweep runner, so a cell's value stream depends
   only on the cell itself. *)
let fresh_value () =
  let st = state () in
  st.st_value <- st.st_value + 1;
  st.st_value

(* Throughput of [ops] operations completed during [duration] cycles, in
   operations per microsecond. *)
let ops_per_us ~ops ~duration = float_of_int ops *. float_of_int cycles_per_us /. float_of_int duration

let ops_of_per_us ~per_us ~duration =
  Float.to_int (Float.round (per_us *. float_of_int duration /. float_of_int cycles_per_us))

(* Dispatch cost with jitter: real benchmark loops have timing noise, and
   a perfectly deterministic cost lets contending threads phase-lock into
   artificial conflict-free schedules. *)
let tick_dispatch ctx = Sim.tick ctx (op_dispatch + Sim.Rng.int (Sim.rng ctx) 32)

(* Run one op repeatedly from [warmup] until the deadline; returns the
   number of completed operations. Used by the measured thread(s). *)
let measured_loop ctx ~deadline op =
  let ops = ref 0 in
  Sim.advance_to ctx warmup;
  while Sim.clock ctx < deadline do
    tick_dispatch ctx;
    op ();
    incr ops
  done;
  !ops

(* Fire [op] every [period] cycles from [warmup] until the deadline. *)
let periodic_loop ctx ~deadline ~period op =
  let next = ref warmup in
  while !next < deadline do
    Sim.advance_to ctx !next;
    tick_dispatch ctx;
    op ();
    next := !next + period
  done

(* Split [total] into [n] parts differing by at most one. *)
let split_evenly total n = List.init n (fun i -> (total / n) + if i < total mod n then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Sweep-runner integration: before each cell, reset this domain's
   ambient state; install the cell's private sinks; afterwards hand the
   cell's profilers back and return the domain to the unobserved
   state. *)

let () =
  Runner.Sweep.set_hooks
    {
      h_prepare =
        (fun () ->
          let st = state () in
          st.st_value <- 0;
          st.st_seq <- 0;
          st.st_profs <- [];
          st.st_fors <- []);
      h_install =
        (fun ~metrics ~profile ~forensics ~tracer ->
          set_obs
            {
              obs_tracer = tracer;
              obs_metrics = metrics;
              obs_profile = profile;
              obs_forensics = forensics;
            });
      h_finish =
        (fun () ->
          let ps = profilers () in
          let fs = forensics () in
          set_obs no_obs;
          (ps, fs));
    }
