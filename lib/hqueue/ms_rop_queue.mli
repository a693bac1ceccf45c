(** Michael-Scott with announcement-based reclamation (the paper's
    "Michael-Scott ROP"): hazard-pointer announce/validate/scan, real
    reclamation at the cost of a fence per traversal step.

    Instantiate through {!Queue_intf.maker}[.make]. *)

val maker : Queue_intf.maker

(** The reclaimer, for the explorer's mutants to derive from. *)

type t

val reclaimer : t Ms_core.reclaimer

val init : ?scan_threshold:int -> t Ms_core.init
(** Without [scan_threshold], a thread scans once it holds twice as many
    retired nodes as there are hazard slots, plus two. *)

val mem : t -> Simmem.t

val store : t -> Sim.tctx -> int -> int -> unit
(** The announcement store of [protect], without its fence. *)
