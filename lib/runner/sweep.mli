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
      (** Collect the cell's labeled profilers and forensics aggregators,
          and restore the domain to its unobserved state. *)
}

val set_hooks : hooks -> unit
(** Written once, at [Workload.Driver]'s module initialisation, before
    any domain is spawned. *)

type 'a outcome = {
  oc_label : string;
  oc_value : ('a, exn) result;
  oc_wall_us : float;  (** wall-clock, microseconds — never deterministic *)
  oc_snapshot : Obs.Metrics.snapshot;  (** empty unless [metrics] was set *)
  oc_profilers : (string * Obs.Profiler.t) list;  (** empty unless [profile] *)
  oc_forensics : (string * Obs.Forensics.t) list;  (** empty unless [forensics] *)
}

val run :
  ?jobs:int ->
  ?metrics:bool ->
  ?profile:bool ->
  ?forensics:bool ->
  ?tracer:Obs.Tracer.t ->
  'a Cell.t list ->
  'a outcome list
(** Execute the cells on up to [jobs] domains (default 1) and return
    their outcomes in input order. Passing a [tracer] forces [jobs = 1]:
    the tracer is a single shared append buffer whose event order
    parallel domains would scramble. *)

val values : 'a outcome list -> 'a list
(** Unwrap in canonical order; re-raises the first failure — only after
    the whole pool has drained, so one dead cell cannot suppress the
    others. *)

val absorb : into:Obs.Metrics.t -> 'a outcome list -> unit
(** Merge the per-cell registries into [into] in canonical cell order
    (deterministic whatever order the pool ran them in), then publish
    the wall-clock telemetry under [runner.*]. *)

val profilers : 'a outcome list -> (string * Obs.Profiler.t) list
(** All labeled contention profilers, in canonical cell order. *)

val forensics : 'a outcome list -> (string * Obs.Forensics.t) list
(** All labeled forensics aggregators, in canonical cell order. *)

val timing_table : ?top:int -> 'a outcome list -> Obs.Table.table
(** The per-cell timing table, for humans (never written into BENCH
    artifacts — wall-clock would break their byte-stability). *)
