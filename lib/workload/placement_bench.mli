(** The malloc-placement ablation: abort rate and coherence ping-pong per
    {!Simmem.placement} policy under a line-granularity HTM, plus the
    fig 1 queue sweep with Michael-Scott+EBR as the reclamation
    competitor. See the implementation header and docs/ALLOCATION.md for
    the mechanism. *)

type result = {
  structure : string;  (** ["counters"], ["pairs"] or ["queue"] *)
  policy : string;  (** {!Simmem.placement_label} of the arena policy *)
  threads : int;
  throughput : float;  (** ops/us *)
  abort_rate : float;  (** conflict aborts per hardware attempt *)
  transfers : int;  (** coherence line transfers (0 when run unprofiled) *)
}

type queue_result = { queue : string; q_threads : int; q_throughput : float }

type piece = P_ablation of result | P_fig1 of queue_result

val policies : Simmem.placement list
(** Canonical column order: packed, isolated, cache-index-aware. *)

val line_htm : Htm.config
(** {!Htm.default_config} with [granularity = Line]. *)

val counters_one :
  policy:Simmem.placement -> threads:int -> duration:int -> seed:int -> result
(** Per-thread transactional counters, boot-allocated in one burst: every
    abort is pure false sharing. *)

val pairs_one :
  policy:Simmem.placement -> threads:int -> duration:int -> seed:int -> result
(** Two-word records (value + stamp) updated together: the granule-of-2
    size class, four records per line when packed. *)

val queue_one :
  policy:Simmem.placement -> threads:int -> duration:int -> seed:int -> result
(** The HTM queue under the fig 1 coin-flip workload, arena-allocated. *)

val competitor_names : string list
(** [["HTM"; "MichaelScott+ROP"; "MichaelScott+EBR"]]. *)

val competitor_one : string -> threads:int -> duration:int -> seed:int -> queue_result

val cells : ?duration:int -> ?seed:int -> unit -> piece Runner.Cell.t list
(** One cell per (thread count x structure x policy), then the
    fig1-shaped competitor block, in canonical sweep order. *)

val run : ?jobs:int -> ?duration:int -> ?seed:int -> unit -> piece list
(** Run the cells with the contention profiler attached (so the transfers
    column is populated) and return the pieces in canonical order. *)

val ablations : piece list -> result list
val fig1_results : piece list -> queue_result list
val to_tables : piece list -> Obs.Table.table list
