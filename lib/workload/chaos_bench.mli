(** The survivability experiment the paper argued for but never ran
    (§1, §7): deterministic fault injection against every algorithm.

    Three scenarios, all seed-reproducible ({!Sim.Fault} plans):

    - {b collect crashes}: 3 of 8 threads are killed mid-operation at
      fixed virtual times while every operation runs through the §2.3
      spec checker ({!Collect_spec}); afterwards the run is checked, the
      quiescent live memory is compared against a fault-free control run
      (the bounded leak a crash costs), and an honest [destroy] exposes
      what can never be reclaimed — zero for the HTM algorithms,
      permanently pinned nodes for the reference-counting schemes;
    - {b queue crashes}: producers/consumers die mid-enqueue/dequeue;
      survivors and a final drain must observe no duplicated or
      fabricated value;
    - {b spurious aborts}: a 15% per-attempt environmental abort rate
      plus preemption stalls, with [Tle_after 6]; every algorithm must
      keep completing operations (the liveness watchdog stays silent)
      and the escalation shows up in {!Htm.stats};
    - {b STM commit-window crashes}: ListFastCollect runs entirely on
      the TL2 software path ([Stm_after 0]) and the plan kills threads
      at the ["stm.commit"] fault point — holding versioned write-locks,
      after validation, before write-back. Survivors must steal the
      stale locks (heartbeat timeout) and keep the machine live.

    [bench/main.exe chaos] runs {!run_all} and renders {!report}. *)

type crash_result = {
  cr_algo : string;
  cr_kills : int;
  cr_stalls : int;
  cr_ops : int;  (** operations completed by surviving threads *)
  cr_checked_collects : int;
  cr_checked_values : int;
  cr_live_faulty : int;  (** live words at quiescence, crashy run *)
  cr_live_control : int;  (** live words at quiescence, fault-free control *)
  cr_pinned_faulty : int;  (** live words after an honest destroy, crashy run *)
  cr_pinned_control : int;  (** same for the control run: the structural floor *)
  cr_fault_trace : string;  (** the injected-fault log, for determinism checks *)
}

val cr_crash_pinned : crash_result -> int
(** Words an honest destroy could not reclaim {e because of the crashes}
    ([cr_pinned_faulty - cr_pinned_control]): zero for the HTM algorithms,
    the crashed reader's permanently pinned nodes for the
    reference-counting schemes. *)

val collect_crash_one : ?seed:int -> Collect.Intf.maker -> crash_result
(** Run the crash scenario against one collect algorithm.
    @raise Collect_spec.Violation if any collect broke the specification.
    @raise Sim.Watchdog if the machine stopped committing progress. *)

type queue_result = {
  qr_queue : string;
  qr_kills : int;
  qr_enqueued : int;  (** enqueues started (crash-interrupted included) *)
  qr_dequeued : int;  (** values dequeued by survivors + the final drain *)
  qr_lost : int;  (** enqueue-intents that never surfaced (crashed ops) *)
  qr_live_quiesce : int;  (** live words after the drain, before destroy *)
  qr_pinned : int;  (** live words after destroy *)
}

exception Queue_violation of string
(** A queue handed out value 0, a value never enqueued, or a duplicate. *)

val queue_crash_one : ?seed:int -> Hqueue.Intf.maker -> queue_result

type spurious_result = {
  sp_algo : string;
  sp_ops : int;
  sp_spurious : int;  (** spurious aborts suffered (from {!Htm.stats}) *)
  sp_fallbacks : int;  (** TLE lock acquisitions *)
  sp_max_consec : int;  (** worst retry chain before a commit *)
  sp_slowest_commit : int;  (** top occupied cycles-to-commit bucket *)
  sp_checked_collects : int;
}

val spurious_one : ?seed:int -> ?rate:float -> Collect.Intf.maker -> spurious_result

type stm_crash_result = {
  st_kills : int;  (** threads killed while holding STM versioned locks *)
  st_ops : int;  (** operations completed by survivors *)
  st_steals : int;  (** locks recovered from the corpses *)
  st_checked_collects : int;  (** spec-checked collects (all passed) *)
  st_stm_commits : int;
}

val stm_crash_one : ?seed:int -> unit -> stm_crash_result
(** Run the STM commit-window crash scenario (ListFastCollect, software
    path). *)

type summary = {
  crashes : crash_result list;
  queues : queue_result list;
  spurious : spurious_result list;
  stm_crashes : stm_crash_result list;
}

(** One scenario run against one algorithm — the unit of parallelism. *)
type piece =
  | Crash of crash_result
  | Queue of queue_result
  | Spurious of spurious_result
  | Stm_crash of stm_crash_result

val cells : ?seed:int -> unit -> piece Runner.Cell.t list
(** One cell per (scenario x algorithm), in canonical sweep order. *)

val summary_of_pieces : piece list -> summary

val tables : summary -> (Obs.Table.table * string) list
(** The rendered tables with their explanatory notes, in report order. *)
