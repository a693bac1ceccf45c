(** §5.1: single-thread Update latency per algorithm, exposing the paper's
    two classes — direct naked-store updates vs. transactional updates
    through a slot reference. *)

type result = {
  algo : string;
  direct : bool;  (** the ≈135 ns class *)
  ns_per_update : float;
}

val run_one :
  Collect.Intf.maker -> handles:int -> updates:int -> seed:int -> result

val cells :
  ?makers:Collect.Intf.maker list ->
  ?handles:int ->
  ?updates:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per algorithm, in canonical sweep order. *)

val to_table : result list -> Obs.Table.table
(** The second column shows the paper's reference value for the class
    (135 or 215 ns). *)
