(** The memory-ordering experiment: the linearizability search and the
    litmus enumeration re-run under every {!Sim.Memmodel} variant.

    Two fingerprint tables, both pure functions of (seed, variant):

    - {b search}: the fence-dropping MS/ROP mutant ([ms-nofence]) must be
      caught under every buffered variant and stay clean under [sc]; the
      HTM queue ([htm-memorder]) must stay clean under {e every} variant
      (transactional publish is atomic, the TLE lock is a full fence);
    - {b litmus}: distinct-outcome counts and relaxed-outcome
      reachability for SB / SB+fence / MP / LB / CoRR / RoW under
      exhaustive schedule enumeration ({!Explore.Litmus}).

    [bench/main.exe memorder] runs {!run_all} and renders {!report};
    docs/MEMORY_ORDERING.md explains the variant matrix. *)

val variants : (string * Sim.Memmodel.t) list

type search_result = {
  ms_scenario : string;
  ms_model : string;
  ms_budget : int;
  ms_runs : int;  (** schedules executed (stops at the first violation) *)
  ms_violations : int;
  ms_first_violation : int;  (** 1-based run of the first violation; 0 = clean *)
  ms_deviations : int;  (** shrunk deviation count of that violation; 0 = clean *)
}

val search_one :
  seed:int -> key:string -> model_name:string -> model:Sim.Memmodel.t -> search_result

type litmus_result = {
  lt_program : string;
  lt_model : string;
  lt_outcomes : int;  (** distinct final register vectors, all schedules *)
  lt_relaxed : bool;  (** the program's distinguished weak outcome reached? *)
}

val litmus_one :
  prog:Explore.Litmus.program ->
  model_name:string ->
  model:Sim.Memmodel.t ->
  litmus_result

type piece = Search of search_result | Litmus of litmus_result

type summary = { searches : search_result list; litmus : litmus_result list }

val cells : ?seed:int -> unit -> piece Runner.Cell.t list
(** One cell per (scenario x variant) plus one per (litmus program x
    variant), in canonical sweep order. *)

val summary_of_pieces : piece list -> summary
val run_all : ?jobs:int -> ?seed:int -> unit -> summary
val tables : summary -> (Obs.Table.table * string) list
val report : Format.formatter -> summary -> unit
