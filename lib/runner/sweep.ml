(** The deterministic sweep executor.

    Each {!Cell.t} runs hermetically: the registered {!hooks} reset the
    executing domain's ambient benchmark state before the thunk and
    restore it after, and every cell gets its own fresh metrics registry
    (when requested), so a cell's result is a pure function of its
    closure. That is the whole determinism contract: because no cell can
    observe another cell's execution, the merged output — outcomes are
    always returned in the input (canonical) order — is byte-identical
    whatever [jobs] is and however the pool interleaved the work.

    Wall-clock is the one deliberately non-deterministic product: each
    outcome carries its cell's wall time, and {!absorb} publishes the
    per-cell distribution through [Obs.Metrics] ([runner.cells],
    [runner.cell_wall_us], [runner.wall_us_total]) without letting it
    near the deterministic result tables. *)

type hooks = {
  h_prepare : unit -> unit;
      (** Reset the executing domain's per-cell ambient state (value
          supply, machine labels, profiler log). *)
  h_install :
    metrics:Obs.Metrics.t option ->
    profile:bool ->
    forensics:bool ->
    tracer:Obs.Tracer.t option ->
    unit;
      (** Install the cell's observability sinks in the executing
          domain. *)
  h_finish :
    unit -> (string * Obs.Profiler.t) list * (string * Obs.Forensics.t) list;
      (** Collect the cell's labeled profilers and forensics, and restore
          the domain to its unobserved state. *)
}

let no_hooks =
  {
    h_prepare = ignore;
    h_install = (fun ~metrics:_ ~profile:_ ~forensics:_ ~tracer:_ -> ());
    h_finish = (fun () -> ([], []));
  }

(* Written once, at [Workload.Driver]'s module initialisation, before any
   domain is spawned; [Domain.spawn] publishes it to the workers. *)
let hooks = ref no_hooks
let set_hooks h = hooks := h

type 'a outcome = {
  oc_label : string;
  oc_value : ('a, exn) result;
  oc_wall_us : float;  (** wall-clock, microseconds — never deterministic *)
  oc_snapshot : Obs.Metrics.snapshot;  (** empty unless [metrics] was set *)
  oc_profilers : (string * Obs.Profiler.t) list;  (** empty unless [profile] *)
  oc_forensics : (string * Obs.Forensics.t) list;  (** empty unless [forensics] *)
}

let run ?(jobs = 1) ?(metrics = false) ?(profile = false) ?(forensics = false)
    ?tracer cells =
  (* A tracer is a single shared append buffer; interleaving domains into
     it would scramble the event order, so tracing forces a serial run. *)
  let jobs = match tracer with Some _ -> 1 | None -> jobs in
  let h = !hooks in
  let exec (c : 'a Cell.t) =
    h.h_prepare ();
    let reg = if metrics then Some (Obs.Metrics.create ()) else None in
    h.h_install ~metrics:reg ~profile ~forensics ~tracer;
    let t0 = Unix.gettimeofday () in
    let value = try Ok (c.thunk ()) with e -> Error e in
    let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
    let profilers, fors = h.h_finish () in
    {
      oc_label = c.label;
      oc_value = value;
      oc_wall_us = wall_us;
      oc_snapshot = (match reg with Some r -> Obs.Metrics.snapshot r | None -> []);
      oc_profilers = profilers;
      oc_forensics = fors;
    }
  in
  Array.to_list (Pool.map ~jobs exec (Array.of_list cells))

(* Unwrap in canonical order; re-raise the first failure only after the
   whole pool has drained, so one dead cell cannot suppress the others. *)
let values outcomes =
  List.map
    (fun o -> match o.oc_value with Ok v -> v | Error e -> raise e)
    outcomes

(* Merge the per-cell registries into [into] in canonical cell order
   (deterministic whatever order the pool ran them in), then publish the
   wall-clock telemetry. *)
let absorb ~into outcomes =
  List.iter (fun o -> Obs.Metrics.absorb into o.oc_snapshot) outcomes;
  let cells_c = Obs.Metrics.counter into "runner.cells" in
  let wall_h = Obs.Metrics.hist into "runner.cell_wall_us" in
  let wall_c = Obs.Metrics.counter into "runner.wall_us_total" in
  List.iter
    (fun o ->
      Obs.Metrics.incr cells_c;
      let us = max 0 (int_of_float o.oc_wall_us) in
      Obs.Metrics.observe wall_h us;
      Obs.Metrics.incr ~by:us wall_c)
    outcomes

let profilers outcomes = List.concat_map (fun o -> o.oc_profilers) outcomes
let forensics outcomes = List.concat_map (fun o -> o.oc_forensics) outcomes

(* The per-cell timing table, for humans (never written into BENCH
   artifacts — wall-clock would break their byte-stability). *)
let timing_table ?(top = 10) outcomes : Obs.Table.table =
  let by_cost =
    List.sort (fun a b -> Float.compare b.oc_wall_us a.oc_wall_us) outcomes
  in
  let top_cells = List.filteri (fun i _ -> i < top) by_cost in
  let total = List.fold_left (fun a o -> a +. o.oc_wall_us) 0.0 outcomes in
  {
    Obs.Table.title =
      Printf.sprintf "Runner: %d cells, %.1f ms wall total (slowest first)"
        (List.length outcomes) (total /. 1000.0);
    xlabel = "cell";
    unit = "ms";
    columns = [ "wall" ];
    rows =
      List.map (fun o -> (o.oc_label, [ Some (o.oc_wall_us /. 1000.0) ])) top_cells;
  }
