(** Explorable scenarios: a program plus its correctness oracle, packaged
    so one run is a pure function of (strategy, seed, fault plan).

    Every scenario builds a fresh simulated machine, runs its threads under
    the given strategy, and judges the outcome with its oracle —
    linearizability ({!Lin}) for the queues, the Dynamic Collect
    specification ([Collect_spec]) for the collect algorithms. Escaped
    simulator exceptions (memory faults, watchdog, exhausted transaction
    retries) are converted to {!Fail}, so a use-after-free found by an
    adversarial schedule is a reportable violation, not a crash of the
    explorer. *)

type outcome = Pass | Fail of string

type t = {
  scn_key : string;  (** registry key, e.g. ["queue:MichaelScott+ROP"] *)
  scn_descr : string;
  scn_threads : int;
  scn_ops : int;  (** operations per thread *)
  scn_model : Sim.Memmodel.t;  (** memory-consistency variant the machine runs *)
  scn_run :
    strategy:Sim.strategy ->
    seed:int ->
    faults:Sim.Fault.spec option ->
    record:Sim.recorder option ->
    trace:Trace.t option ->
    tracer:Obs.Tracer.sink option ->
    outcome;
      (** [trace] captures the run from the first operation on; [tracer]
          renders the machine's events from its creation and is passed
          to {!Sim.run}, so the scheduler's slices land in the same
          sink. *)
}

val queue_lin :
  ?key:string ->
  ?htm_config:Htm.config ->
  ?model:Sim.Memmodel.t ->
  Hqueue.Intf.maker ->
  threads:int ->
  ops:int ->
  t
(** Mixed enqueue/dequeue load with every operation recorded into a {!Lin}
    history and checked after the run. Kills are stripped from the fault
    plan (a killed thread's half-performed operation would make the
    history unjudgeable); stalls and spurious aborts pass through.
    [htm_config] selects the transaction machinery — e.g. an [Stm_after]
    policy drives the same oracle through the TL2 software path. [model]
    selects the memory-consistency variant (default [sc]).
    @raise Invalid_argument if [threads * ops > Lin.max_ops]. *)

val racy_counter : ?model:Sim.Memmodel.t -> threads:int -> ops:int -> unit -> t
(** Unsynchronised counter whose threads increment in disjoint
    virtual-time windows: passes under [Min_clock], fails under schedules
    that reorder across windows — the seeded known-bad specimen the
    explorer's own tests calibrate against. *)

val collect_spec :
  ?key:string ->
  ?htm_config:Htm.config ->
  ?model:Sim.Memmodel.t ->
  Collect.Intf.maker ->
  threads:int ->
  ops:int ->
  t
(** Register/update/collect/deregister load checked against the Dynamic
    Collect specification. Kill-carrying fault plans are allowed
    ([Collect_spec] is crash-aware); [destroy] is skipped for them. *)

val queues : ?model:Sim.Memmodel.t -> threads:int -> ops:int -> unit -> t list
(** {!queue_lin} over [Hqueue.all_with_extensions]. *)

val collects : ?model:Sim.Memmodel.t -> threads:int -> ops:int -> unit -> t list
(** {!collect_spec} over [Collect.all_with_extensions]. *)

val build :
  key:string ->
  ?model:Sim.Memmodel.t ->
  threads:int ->
  ops:int ->
  unit ->
  (t, string) result
(** Resolve a registry key: ["queue:NAME"], ["collect:NAME"], ["racy"],
    ["broken-rop"] (the {!Mutant} queue), ["ms-nofence"] (the
    StoreLoad-fence-dropping mutant — correct under [sc], unsafe under a
    buffered [model]), ["htm-memorder"] (the HTM queue, for checking
    strong atomicity under every variant), or the STM-forced variants
    ["stm-queue"] / ["stm-collect"], which run the HTM queue and
    ListFastCollect entirely on the {!Stm} software path ([Stm_after 0]).
    [model] applies to every scenario; it is not baked into the key. *)
