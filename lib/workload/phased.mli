(** Figure 8: Collect throughput over time as the registered-slot total
    alternates between 16 and 64 every phase
    (paper §5.5). Shows which algorithms adapt to the registered count —
    and that ArrayStatSearchNo never recovers. *)

type result = {
  algo : string;
  buckets : (float * float) list;  (** (time in ms, collects per µs) *)
}

val run_one :
  Collect.Intf.maker ->
  updaters:int ->
  phase_len:int ->
  phases:int ->
  bucket_len:int ->
  step:Collect.Intf.step_policy ->
  seed:int ->
  result
(** One algorithm's run over [phases] phases of [phase_len] cycles. *)

val cells :
  ?updaters:int ->
  ?phase_len:int ->
  ?phases:int ->
  ?bucket_len:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per algorithm, in canonical sweep order. *)

val to_table : result list -> Obs.Table.table
