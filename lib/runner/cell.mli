(** One independent unit of a sweep: a labeled thunk whose result depends
    only on the parameters baked into the closure (and the per-cell
    ambient state {!Sweep} resets before running it). Labels are stable
    identifiers — they name the cell in timing reports and error
    messages, and determinism tests key on them. *)

type 'a t = { label : string; thunk : unit -> 'a }

val v : label:string -> (unit -> 'a) -> 'a t
