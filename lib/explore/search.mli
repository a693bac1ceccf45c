(** The explorer driver: enumerate (seed, strategy, fault-plan) triples
    over a scenario set, and shrink + package every violation found.

    One search run is fully deterministic in its arguments: seeds are
    derived arithmetically from [base_seed] and the run index, strategies
    cycle per round through {e min-clock, random walks, PCT at depths 3
    and 4}, and (when enabled) every other adversarial round adds a
    kill-free stall/spurious fault plan. Each run records its scheduling
    decisions; on failure the sparse deviation list is verified to replay,
    minimised with {!Shrink}, and replayed once more with a {!Trace} attached to
    capture the interleaving — yielding a self-contained {!Artifact}. *)

type violation = {
  vio_artifact : Artifact.t;
  vio_replayed : bool;
      (** the recorded deviations reproduced the failure under
          [Sim.Deviate] before shrinking (always expected; [false] would
          indicate a determinism bug) *)
  vio_shrink_tests : int;
}

type summary = {
  res_runs : int;
  res_passed : int;
  res_violations : violation list;
}

val strategy_for : round:int -> seed:int -> Sim.strategy
(** The strategy schedule: round 0 is [Min_clock], later rounds cycle
    random walks and PCT. Exposed for the CLI and tests. *)

val light_faults : int -> Sim.Fault.spec
(** The kill-free adversity plan used by fault-enabled rounds: 2 %
    preemption stalls (up to 400 cycles) and 2 % spurious aborts. *)

val search :
  ?offset:int ->
  ?base_seed:int ->
  ?with_faults:bool ->
  ?max_violations:int ->
  ?log:(string -> unit) ->
  budget:int ->
  Scenario.t list ->
  summary
(** [search ~budget scenarios] runs schedules [offset] (default 0)
    through [offset + budget - 1] round-robin over the scenarios,
    stopping early after [max_violations] (default 3) shrunken
    violations. Seeds, strategies and fault plans are pure functions of
    the run index, so an offset range reproduces exactly that slice of a
    longer serial search. [log] receives progress lines. *)

val search_sharded :
  ?jobs:int ->
  ?base_seed:int ->
  ?with_faults:bool ->
  ?max_violations:int ->
  ?log:(string -> unit) ->
  budget:int ->
  Scenario.t list ->
  summary
(** {!search} with the run range sharded contiguously across up to
    [jobs] domains. The union of runs equals the serial search's and the
    merged violations are listed in run order, but each shard applies
    [max_violations] separately (so up to [jobs * max_violations]
    violations can come back) and [log] only fires at [jobs = 1]. *)

val replay_artifact :
  ?trace:Trace.t ->
  ?tracer:Obs.Tracer.sink ->
  Artifact.t ->
  (Scenario.outcome, string) result
(** Re-run an artifact's scenario under its recorded deviations and fault
    plan, observed by [trace] and [tracer] as in {!Scenario.t}; [Error] if
    its scenario key no longer resolves. *)
