(** The degradation-lattice experiment ([bench fallback]): fallback policy
    x thread count on 48-store transactions (shared and disjoint), the
    hybrid-TM interference sweep (M software writers collapsing hardware
    throughput), and the mid-commit-crash liveness run where survivors
    steal a dead thread's versioned locks under an armed watchdog. *)

type policy = { pol_name : string; pol_config : Htm.config }

type grid_result = {
  gr_policy : string;
  gr_threads : int;
  gr_shared : bool;
  gr_tput : float;
  gr_attempts_hw : int;
  gr_attempts_stm : int;
  gr_attempts_tle : int;
  gr_escalations : int;
  gr_fallbacks : int;
  gr_stm_commits : int;
}

type interf_result = {
  ir_big_writers : int;
  ir_small_tput : float;
  ir_big_tput : float;
  ir_small_conflicts : int;
  ir_escalations : int;
}

type chaos_result = {
  ch_kills : int;
  ch_survivor_ops : int;
  ch_steals : int;
  ch_torn : int;  (** words disagreeing at quiescence — must be 0 *)
}

type piece =
  | Grid of grid_result
  | Interf of interf_result
  | Chaos of chaos_result

type summary = {
  grid : grid_result list;
  interference : interf_result list;
  chaos : chaos_result list;
}

val cells :
  ?threads:int list ->
  ?big:int list ->
  ?duration:int ->
  ?seed:int ->
  unit ->
  piece Runner.Cell.t list
(** One cell per sweep point, in canonical order: the policy x threads
    grid (shared then disjoint), the interference sweep over [big], then
    the chaos run. *)

val summary_of_pieces : piece list -> summary

val tables : summary -> (Obs.Table.table * string) list
(** Rendered tables with their explanatory notes, in report order. *)
