(** Pretty-printed interleaving capture.

    A trace is a bounded line buffer fed by a machine's event stream
    ({!sink}): one line per completed memory access, transaction event or
    injected fault, prefixed with the issuing thread and its virtual
    clock. Attach it to
    the run that replays a shrunken failure and the resulting lines are
    the per-thread timeline that goes into the artifact file. *)

type t

val create : ?limit:int -> unit -> t
(** Line buffer capped at [limit] (default 4000); further events are
    counted, not stored. *)

val sink : t -> Simmem.sink
(** This trace as a machine observer: attach it with {!Simmem.attach}
    and every access and transaction event becomes a line; pass
    {!Simmem.observer} as [Sim.run]'s [?observe] and so does every
    injected fault, in the same stream as the accesses and transactions
    it perturbs. *)

val lines : t -> string list
(** Captured lines in event order, with a final summary line when events
    were dropped. *)
