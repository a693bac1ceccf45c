(** Figure 7: Collect throughput under Register/DeRegister churn — one
    collector; churners cycle their slots with a fixed 20 000-cycle
    register period and a varied deregister period (paper §5.4). *)

type result = { algo : string; label : string; dereg_period : int; throughput : float }

val cells :
  ?makers:Collect.Intf.maker list ->
  ?churners:int ->
  ?periods:int list ->
  ?duration:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per (dereg period x algorithm), in canonical sweep order. *)

val run :
  ?jobs:int ->
  ?makers:Collect.Intf.maker list ->
  ?churners:int ->
  ?periods:int list ->
  ?duration:int ->
  ?seed:int ->
  unit ->
  result list

val to_table : result list -> Obs.Table.table
