(** Shape-level comparison of two BENCH artifacts.

    The reproduction charter compares *shapes* with the paper — orderings
    within a row, ratios within a tolerance band, and the positions where
    one curve crosses another — never absolute values. [bench diff] gates
    on exactly those three properties between a committed baseline and a
    fresh run, so a change that shifts every number by 3 % passes while a
    change that flips "HTM beats Michael-Scott from 4 threads" or moves
    fig4's 600→400-cycle crossover fails. *)

type issue = { i_table : string; i_kind : string; i_detail : string }

type report = {
  r_tables : int;  (** tables matched by title and compared *)
  r_cells : int;  (** value cells compared *)
  r_issues : issue list;
}

val default_order_tol : float
(** 0.05: two values within 5 % (relative) are tied — only strict
    orderings participate in the ordering and crossover checks. *)

val default_ratio_tol : float
(** 1.25: a cell whose new/old ratio leaves [[1/1.25, 1.25]] is flagged. *)

val has_regression : report -> bool

val diff :
  ?order_tol:float ->
  ?ratio_tol:float ->
  old_artifact:Obs.Json.t ->
  new_artifact:Obs.Json.t ->
  unit ->
  report
(** Compare every table of [old_artifact] (matched by title) against
    [new_artifact]: column/row-label equality, per-cell ratio band,
    pairwise ordering reversals, crossover positions, and
    disappeared/appeared tables. *)

val print : Format.formatter -> report -> unit
(** The summary table (one row per issue kind, plus the compared-shape
    totals), then one line per issue, then the verdict. *)
