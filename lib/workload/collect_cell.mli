(** The collect cell behind Figures 4–8 and the §6 ablations (paper
    §5.3): one thread collects back to back while the others register,
    update or churn handles, and every handle stays registered until the
    collector's window closes. Written once; the figures, the ablations
    and the ext experiment's starvation sweep pass their machine, config
    and helper role. *)

type helper = Collect.Intf.instance -> int -> Sim.tctx -> Collect.Intf.handle list
(** A helper role: [helper inst i ctx] runs helper [i]'s part of the cell
    and returns the handles it still holds, in deregistration order. *)

val run :
  ?at_warmup:(unit -> unit) ->
  ?after_collect:(Sim.tctx -> unit) ->
  Driver.machine ->
  Collect.Intf.maker ->
  Collect.Intf.cfg ->
  deadline:int ->
  seed:int ->
  helper:helper ->
  int * Collect.Intf.instance
(** Build the instance on the caller's machine and run [cfg.num_threads]
    threads. Thread 0 is the collector: {!Driver.measured_loop} over a
    clear-and-collect into a buffer of [cfg.max_slots], calling
    [after_collect] after each collect. Given [at_warmup], it first
    advances to {!Driver.warmup} and calls it there. Thread [i + 1] runs
    [helper inst i] and returns the handles it still holds; it ticks
    2000 cycles at a time until the collector is done, then deregisters
    them in the order given. Returns the collects completed in the window
    and the instance, which is not destroyed. *)

val updater : deadline:int -> ?period:int -> (int -> int) -> helper
(** [updater ~deadline ?period quota] is the helper role that registers
    [quota i] handles and, given a [period], updates the first of them
    every [period] cycles from {!Driver.warmup} until [deadline]. *)

val tle_one : htm_config:Htm.config -> duration:int -> seed:int -> float * int
(** The §6 TLE ablation: ArrayDynAppendDereg at step 16, 15 updaters
    holding 4 handles each and updating one every 2000 cycles. Returns
    collects per µs and the TLE lock fallbacks. *)

val store_buffer_one : int -> duration:int -> seed:int -> float * int
(** The §6 store-buffer ablation at the given buffer capacity:
    ArrayDynAppendDereg, adaptively stepped, beside one thread holding 64
    handles. Returns collects per µs and the largest step setting the
    adaptive controller used. *)

val starvation_one :
  Collect.Intf.maker -> churn_period:int -> duration:int -> seed:int -> float
(** The §3.1.2 starvation scenario: 15 churners each hold 4 stable
    handles and cycle a volatile one, deregistering it and registering a
    replacement half a [churn_period] later. Returns collects per µs. *)
