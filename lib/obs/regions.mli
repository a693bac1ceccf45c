(** Per-cache-line region names, shared by {!Profiler} and {!Forensics}:
    which labelled regions each line of the simulated heap was used as. *)

val line_shift : int
(** Simmem's lines are 8 words: a word's line is [addr lsr line_shift]. *)

type t

val create : unit -> t

val label : t -> name:string -> base:int -> words:int -> unit
(** Name the lines covering [\[base, base+words)]. Names are deduplicated
    per line at label time, so re-labelling a recycled block is
    idempotent and allocation hot loops can label unconditionally. *)

val region_of : t -> int -> string
(** A line's names, sorted and joined by [" + "] (more than one means
    distinct regions shared the line over its lifetime: false sharing);
    ["?"] if the line was never labelled. *)

val absorb : t -> t -> unit
(** [absorb dst src] adds each of [src]'s line names to [dst]. *)
