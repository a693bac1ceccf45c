(** Per-thread telescoping step control shared by the HTM collects
    (paper §3.4).

    With [Fixed n] every thread always uses step [min n max_step]; with
    [Fixed_instrumented n] the same, but paying the per-transaction cost of
    maintaining the adaptation window (Figure 5's "Best (adapt cost)");
    with [Adaptive] each thread owns an independent {!Htm.Adapt}
    controller, since adaptation must react to the contention that thread
    experiences. *)

type t

val make : Htm.t -> Collect_intf.step_policy -> max_step:int -> t
(** [make htm policy ~max_step]: an [Adaptive] table has one slot per
    thread [htm]'s heap tracks ({!Simmem.slots}). [max_step] is per
    algorithm: e.g. HOHRC spends up to 5 store-buffer
    slots on reference-count bookkeeping, so its steps cannot reach 32.
    For [Adaptive] the bound is rounded down to a power of two. *)

val get : t -> Sim.tctx -> int
(** The step size this thread should use for its next transaction. *)

val on_commit : t -> Sim.tctx -> unit
(** Record a committed collect transaction (charges the instrumentation
    cost for adaptive/instrumented policies). *)

val on_abort : t -> Sim.tctx -> unit
(** Record an aborted attempt. *)

val record_collected : t -> Sim.tctx -> int -> unit
(** Account elements collected at the current step size (Figure 6). *)

val chunk : t -> Htm.t -> Sim.tctx -> Sim.Ibuf.t -> (Htm.tx -> int -> 'a) -> 'a
(** [chunk t htm ctx buf body] runs one telescoped collect transaction:
    [body tx step] appends at most [step] values to [buf], retried from
    the same buffer length after each abort; then the commit and the
    values it appended are recorded. Returns [body]'s result. *)

val histogram : t -> (int * int) list
(** [(step, elements)] pairs merged across threads, ascending by step. *)
