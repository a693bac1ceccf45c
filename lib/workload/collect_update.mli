(** Figures 4–6: Collect throughput under concurrent Updates — one
    collector, periodic updaters, 64 handles registered (paper §5.3). *)

type result = {
  algo : string;
  label : string;  (** algorithm + step annotation, for figure legends *)
  period : int;
  throughput : float;  (** collects per µs *)
  histogram : (int * int) list;  (** slots collected per step size (fig 6) *)
  commits : int;  (** HTM commits during the whole run *)
  aborts : int;  (** HTM aborts, all causes *)
}

val step_label : Collect.Intf.step_policy -> string
val period_label : int -> string

val run_one :
  Collect.Intf.maker ->
  updaters:int ->
  period:int ->
  duration:int ->
  step:Collect.Intf.step_policy ->
  seed:int ->
  result

type churn_result = {
  churn_algo : string;
  churn_threads : int;
  churn_registers : int;  (** handles registered during the window *)
  churn_collects : int;  (** collects completed during the window *)
  churn_throughput : float;  (** registrations per µs *)
  churn_commits : int;
  churn_aborts : int;
}

val churn_one :
  Collect.Intf.maker -> threads:int -> duration:int -> seed:int -> churn_result
(** Registration stampede: half the threads collect back to back, half
    register fresh handles flat out. For the list algorithms a collect's
    first transaction reads the list-head word and stays in flight for a
    whole traversal step, so each concurrent head insertion kills it at
    exactly that word — the workload behind [bench doctor contend]'s
    header attribution. *)

val fig4_algos : unit -> Collect.Intf.maker list
(** The Figure 4 line-up: the four telescoping algorithms plus the two
    whose collects use no transactions. *)

val cells_fig4 :
  ?updaters:int ->
  ?periods:int list ->
  ?duration:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per (period x algorithm), in canonical sweep order. *)

val cells_fig5 :
  ?updaters:int ->
  ?periods:int list ->
  ?duration:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per (period x step policy): the plotted fixed steps, the
    instrumented best-candidates, then the adaptive controller. *)

val fig5_collate : result list -> result list
(** Reduce raw {!cells_fig5} results (in cell order) to the plotted
    series: fixed steps, "Best (adapt cost)", adaptive — per period. *)

val cells_fig6 :
  ?updaters:int ->
  ?periods:int list ->
  ?duration:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list

val distinct_in_order : string list -> string list
(** The list without repeats, each kept at its first occurrence: the
    column order of a table whose series appear in sweep order. *)

val to_table : title:string -> result list -> Obs.Table.table
val fig6_table : result list -> Obs.Table.table
