(** Shared result rendering: aligned text tables, CSV, ASCII charts.

    This is the one home for tabular pretty-printing — the benchmark
    harness and the explorer CLI both render through it, so column
    sizing and number formatting stay consistent everywhere. *)

type table = {
  title : string;
  xlabel : string;
  unit : string;  (** of the cell values, e.g. "ops/us" *)
  columns : string list;
  rows : (string * float option list) list;
      (** x-axis label, one value per column; [None] prints as "-" *)
}

val pivot :
  title:string ->
  xlabel:string ->
  unit:string ->
  rows:(string * 'r) list ->
  columns:string list ->
  key:('a -> 'r * string) ->
  value:('a -> float) ->
  'a list ->
  table
(** [pivot ~rows ~columns ~key ~value results] lays results out as a
    table: one row per [(label, row_key)] of [rows] and one column per
    name in [columns], both in the order given. The cell at [(r, c)] is
    [value] of the first result whose [key] is structurally equal to
    [(r, c)], or [None] if there is none. *)

val print_cols : Format.formatter -> string list -> string list list -> unit
(** [print_cols ppf header rows] renders pre-stringified rows as
    left-aligned columns sized to their widest entry — the raw layout
    engine behind {!print}, also used directly for non-numeric listings
    (algorithm tables, metric dumps). Rows shorter than the header are
    padded with empty cells. *)

val print : Format.formatter -> table -> unit
(** Aligned human-readable table. *)

val print_csv : Format.formatter -> table -> unit
(** Same data as CSV (one header comment line, then header + rows). *)

val plot : ?height:int -> Format.formatter -> table -> unit
(** ASCII line chart of the table: one glyph-coded series per column over
    the row order, with a y-scale and a legend — the closest a terminal
    gets to regenerating the paper's figures. *)

val to_json : table -> Json.t
(** The table as a JSON object: [{title, xlabel, unit, columns, rows:
    [{x, values}]}] with [None] cells as [null] — the row format of the
    machine-readable bench report. *)

val of_json : Json.t -> (table, string) result
(** Strict inverse of {!to_json}; [bench diff] reads tables back out of
    BENCH artifacts with it. *)
