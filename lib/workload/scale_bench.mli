(** The scaling study: fig1/fig3-shaped workloads at 16–256 simulated
    threads on million-word heaps, asking whether the paper's headline
    shapes survive past Rock's 16 cores. *)

type result = { subject : string; threads : int; throughput : float }

val queue_one :
  Hqueue.Intf.maker -> threads:int -> duration:int -> seed:int -> result
(** One fig1-shaped queue cell at [threads]; also the fixed reference
    cell of the CI perf floor. *)

val cells :
  ?threads:int list -> ?duration:int -> ?seed:int -> unit -> result Runner.Cell.t list
(** One cell per (thread count x subject): the queue block then the
    collect block, each in canonical sweep order. *)

val to_tables : result list -> Obs.Table.table list
(** The two tables: queue throughput and the collect-dominated mix. *)
