(** Figure 3: the Collect-dominated mixed workload — Collect 90 %,
    Update 8 %, Register 1 %, DeRegister 1 % over a 64-slot budget with 32
    slots initially registered (paper §5.2). *)

type result = { algo : string; threads : int; throughput : float }

val mix :
  Driver.machine ->
  Collect.Intf.maker ->
  threads:int ->
  budget:int ->
  per_thread:int ->
  pre_registered:int ->
  step:Collect.Intf.step_policy ->
  duration:int ->
  seed:int ->
  int
(** The fig 3 mix on a machine the caller built: an instance with
    [budget] slots, each thread registering [pre_registered] handles and
    never holding more than [per_thread], then drawing collect 90 %,
    update 8 %, register 1 %, deregister 1 % until the window closes. An
    operation that does not apply (register when full, update or
    deregister when empty) is skipped and not counted. The instance is
    destroyed afterwards; returns the operations completed in the window.
    The scale study reuses it with a per-thread budget. *)

val cells :
  ?makers:Collect.Intf.maker list ->
  ?threads:int list ->
  ?duration:int ->
  ?step:Collect.Intf.step_policy ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per (thread count x algorithm), in canonical sweep order. *)

val run :
  ?jobs:int ->
  ?makers:Collect.Intf.maker list ->
  ?threads:int list ->
  ?duration:int ->
  ?step:Collect.Intf.step_policy ->
  ?seed:int ->
  unit ->
  result list

val to_table : ?makers:Collect.Intf.maker list -> result list -> Obs.Table.table
