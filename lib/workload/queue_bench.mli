(** Figure 1: mixed enqueue/dequeue throughput of the three queues as the
    thread count grows. *)

type result = { queue : string; threads : int; throughput : float }

val coin_flip :
  Driver.machine ->
  Hqueue.Intf.maker ->
  threads:int ->
  prefill:int ->
  duration:int ->
  seed:int ->
  int
(** The fig 1 cell on a machine the caller built: make a queue, enqueue
    [prefill] values from the boot thread, then every thread flips a fair
    coin per operation (enqueue or dequeue) until the window closes. The
    queue is destroyed afterwards; returns the operations completed in the
    window. The scale and placement studies and the ext experiment reuse
    it on their own machines. *)

val run_one :
  Hqueue.Intf.maker -> threads:int -> duration:int -> prefill:int -> seed:int -> result
(** One (queue, thread-count) cell; also used standalone by the
    contention experiment. *)

val cells :
  ?threads:int list ->
  ?duration:int ->
  ?prefill:int ->
  ?seed:int ->
  unit ->
  result Runner.Cell.t list
(** One cell per (thread count x queue), in canonical sweep order. *)

val to_table : result list -> Obs.Table.table
