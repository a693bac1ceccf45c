(** History recording and linearizability checking for FIFO queues.

    Each queue operation is bracketed by two {!stamp}s — logical times from
    a counter bumped at every event, so intervals record execution order,
    which is the simulator's real-time order under {e any} scheduling
    strategy (virtual clocks are not comparable across threads under
    [Sim.Random_walk] / [Sim.Pct]; see [Sim.strategy]).

    {!check} runs Wing & Gong's tree search (with dead-state memoization):
    it succeeds iff some interleaving of the operations that respects the
    recorded real-time order is a legal sequential FIFO execution.

    Crashed (never-completed) operations must not be recorded; record only
    operations that returned. Kill-free fault plans are therefore required
    for histories checked with this module. *)

type op_kind = Enq of int | Deq of int option

type op = {
  op_tid : int;
  op_inv : int;  (** logical time of invocation *)
  op_res : int;  (** logical time of response *)
  op_kind : op_kind;
}

type history

val create : unit -> history

val stamp : history -> int
(** Next logical time; call immediately before the operation (invocation
    stamp) and immediately after it returns (response stamp). *)

val add : history -> tid:int -> inv:int -> res:int -> op_kind -> unit
(** Record one completed operation. *)

val max_ops : int
(** Upper bound on checkable history size ([62]: linearized-sets are
    bitmasks in one int). *)

val check : history -> (unit, string) result
(** [Ok ()] iff the history is linearizable with respect to a sequential
    FIFO queue initially empty. [Error msg] carries the full history,
    pretty-printed. @raise Invalid_argument beyond {!max_ops} operations. *)
