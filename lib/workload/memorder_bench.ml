(* The memory-ordering experiment: re-run the linearizability search and
   the litmus enumeration under every {!Sim.Memmodel} variant and pin the
   fingerprints.

   Two claims, both deterministic:

   - the fence-dropping MS/ROP mutant ([ms-nofence]) is caught by the
     explorer under every buffered variant and is clean under [sc] — the
     bug IS a missing fence, so only a weak-memory plane can see it;
   - the HTM queue ([htm-memorder]) stays violation-free under every
     variant: transactional commit publishes atomically and the TLE lock
     operations are full fences, so the store buffers never leak a stale
     view out of a transaction.

   Everything is a pure function of (seed, variant): cells are
   independent, so a [Runner.Sweep] at any --jobs renders byte-identical
   tables. *)

let variants = Sim.Memmodel.all
let threads = 3
let ops = 4

(* ------------------------------------------------------------------ *)
(* Linearizability search per variant.                                 *)
(* ------------------------------------------------------------------ *)

type search_result = {
  ms_scenario : string;
  ms_model : string;
  ms_budget : int;
  ms_runs : int;  (** schedules executed (stops at the first violation) *)
  ms_violations : int;
  ms_first_violation : int;  (** 1-based run of the first violation; 0 = clean *)
  ms_deviations : int;  (** shrunk deviation count of that violation; 0 = clean *)
}

(* The mutant needs room: its window opens only once a reclaimer scan
   races a buffered announcement (found around run 650 at seed 1). The
   HTM control is a negative check, so a smaller budget carries the same
   information. *)
let search_budget = function "ms-nofence" -> 800 | _ -> 150

let search_one ~seed ~key ~model_name ~model =
  let budget = search_budget key in
  let scn =
    match Explore.Scenario.build ~key ~model ~threads ~ops () with
    | Ok scn -> scn
    | Error e -> failwith e
  in
  let s = Explore.Search.search ~base_seed:seed ~max_violations:1 ~budget [ scn ] in
  let first, devs =
    match s.res_violations with
    | [] -> (0, 0)
    | v :: _ -> (s.res_runs, List.length v.vio_artifact.art_deviations)
  in
  {
    ms_scenario = key;
    ms_model = model_name;
    ms_budget = budget;
    ms_runs = s.res_runs;
    ms_violations = List.length s.res_violations;
    ms_first_violation = first;
    ms_deviations = devs;
  }

(* ------------------------------------------------------------------ *)
(* Litmus fingerprints per variant.                                    *)
(* ------------------------------------------------------------------ *)

type litmus_result = {
  lt_program : string;
  lt_model : string;
  lt_outcomes : int;  (** distinct final register vectors, all schedules *)
  lt_relaxed : bool;  (** the program's distinguished weak outcome reached? *)
}

(* The outcome each program exists to probe for: reachable only where the
   weak plane permits it (see docs/MEMORY_ORDERING.md's litmus table). *)
let relaxed_outcome = function
  | "SB" | "SB+fence" -> [ 0; 0 ]
  | "MP" | "CoRR" -> [ 1; 0 ]
  | "LB" -> [ 1; 1 ]
  | "RoW" -> [ 0 ]
  | p -> failwith ("relaxed_outcome: unknown litmus program " ^ p)

let litmus_one ~prog ~model_name ~model =
  let name = prog.Explore.Litmus.prog_name in
  match Explore.Litmus.enumerate ~model prog with
  | Error e -> failwith e
  | Ok outcomes ->
    {
      lt_program = name;
      lt_model = model_name;
      lt_outcomes = List.length outcomes;
      lt_relaxed = List.mem (relaxed_outcome name) outcomes;
    }

(* ------------------------------------------------------------------ *)
(* Cells, summary, tables.                                             *)
(* ------------------------------------------------------------------ *)

type piece = Search of search_result | Litmus of litmus_result

type summary = { searches : search_result list; litmus : litmus_result list }

(* One cell per (scenario x variant) plus one per (program x variant), in
   canonical sweep order. *)
let cells ?(seed = 1) () =
  List.concat_map
    (fun key ->
      List.map
        (fun (model_name, model) ->
          Runner.Cell.v
            ~label:(Printf.sprintf "memorder/%s/%s" key model_name)
            (fun () -> Search (search_one ~seed ~key ~model_name ~model)))
        variants)
    [ "ms-nofence"; "htm-memorder" ]
  @ List.concat_map
      (fun prog ->
        List.map
          (fun (model_name, model) ->
            Runner.Cell.v
              ~label:
                (Printf.sprintf "memorder/litmus/%s/%s"
                   prog.Explore.Litmus.prog_name model_name)
              (fun () -> Litmus (litmus_one ~prog ~model_name ~model)))
          variants)
      Explore.Litmus.all

let summary_of_pieces pieces =
  {
    searches = List.filter_map (function Search s -> Some s | _ -> None) pieces;
    litmus = List.filter_map (function Litmus l -> Some l | _ -> None) pieces;
  }

let fi = float_of_int

let search_table (searches : search_result list) : Obs.Table.table =
  {
    title =
      Printf.sprintf
        "Linearizability search per memory model (%d threads, %d ops/thread, \
         stop at first violation)"
        threads ops;
    xlabel = "scenario/model";
    unit = "counts";
    columns = [ "budget"; "runs"; "violations"; "first-violation"; "shrunk-devs" ];
    rows =
      List.map
        (fun s ->
          ( Printf.sprintf "%s under %s" s.ms_scenario s.ms_model,
            [ Some (fi s.ms_budget); Some (fi s.ms_runs); Some (fi s.ms_violations);
              Some (fi s.ms_first_violation); Some (fi s.ms_deviations) ] ))
        searches;
  }

let search_note =
  "ms-nofence drops the announcement fence from the MS/ROP queue: under\n\
   sc the store is instantly visible and the search stays clean, under\n\
   every buffered variant the reclaimer's scan misses the buffered\n\
   announcement and the explorer pins a use-after-free. htm-memorder is\n\
   the control: transactional publish is atomic and the TLE lock is a\n\
   full fence, so the HTM queue is clean under every variant.\n"

let litmus_table (litmus : litmus_result list) : Obs.Table.table =
  {
    title = "Litmus fingerprints (exhaustive schedule enumeration)";
    xlabel = "program/model";
    unit = "counts";
    columns = [ "distinct-outcomes"; "relaxed-reached" ];
    rows =
      List.map
        (fun l ->
          ( Printf.sprintf "%s under %s" l.lt_program l.lt_model,
            [ Some (fi l.lt_outcomes); Some (if l.lt_relaxed then 1. else 0.) ] ))
        litmus;
  }

let litmus_note =
  "relaxed-reached = 1 iff the program's distinguished weak outcome is\n\
   reachable under some schedule: SB's (0,0) only under buffered\n\
   variants, SB+fence's (0,0) only under sb-fence-nop, RoW's stale 0\n\
   only under sb-bypass, and MP/LB/CoRR forbidden everywhere (a FIFO\n\
   store buffer never reorders stores, loads, or same-location reads).\n"

let tables (s : summary) =
  [ (search_table s.searches, search_note); (litmus_table s.litmus, litmus_note) ]
