(** Minimal JSON: a value type, a deterministic printer and a strict
    parser.

    The observability layer ships machine-readable artifacts (Chrome
    [trace_event] timelines, metrics snapshots, bench reports) without an
    external JSON dependency. Printing is deterministic — object fields
    keep their construction order, numbers render identically for
    identical inputs — so byte-equality of two exported files is a valid
    determinism oracle. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val pretty_to_string : t -> string

val write_file : string -> t -> unit
(** Pretty-print to a file (truncating), with a trailing newline. *)

val parse : string -> (t, string) result
(** Strict parser for the subset this module prints (plus standard JSON
    escapes and exponent floats). Numbers without [.], [e] or [E] parse as
    [Int]. Errors carry a byte offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
