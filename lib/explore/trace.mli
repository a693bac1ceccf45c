(** Pretty-printed interleaving capture.

    A trace is a bounded line buffer fed by a machine's event stream
    ({!sink}): one line per completed memory access or transaction event,
    prefixed with the issuing thread and its virtual clock. Attach it to
    the run that replays a shrunken failure and the resulting lines are
    the per-thread timeline that goes into the artifact file. *)

type t

val create : ?limit:int -> unit -> t
(** Line buffer capped at [limit] (default 4000); further events are
    counted, not stored. *)

val sink : t -> Simmem.sink
(** This trace as a machine observer: attach it with {!Simmem.attach}
    and every access and transaction event becomes a line. *)

val on_fault : t -> Sim.Fault.event -> unit
(** Record one injected fault as a trace line; pass as [Sim.run]'s
    [?on_fault] so injections land in the same stream as the accesses
    and transactions they perturb. *)

val lines : t -> string list
(** Captured lines in event order, with a final summary line when events
    were dropped. *)
