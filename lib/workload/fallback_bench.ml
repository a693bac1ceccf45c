(* The degradation-lattice experiment: what each fallback policy costs
   when transactions outgrow the hardware (the paper's §6 concern made
   quantitative, extended with the hybrid HTM→STM slow path).

   Three questions, one table each:

   - Shared big transactions (48 stores, one region, full conflict):
     everything serialises semantically, so the winner is whoever wastes
     the least on doomed attempts — TLE-only commits under the lock with
     no retries, the hybrid pays two hardware attempts before escalating,
     HTM-with-TLE burns its whole retry budget first.

   - Disjoint big transactions: the same stores spread over per-thread
     regions. Here the lock is the bottleneck: TLE-only still serialises
     every transaction while the TL2 slow path commits them in parallel —
     the reason a software fallback is worth its complexity.

   - Interference: M big software-path writers sharing a machine with 8
     small hardware transactions that read the words the writers mutate.
     Every STM write-back bumps word versions and aborts the readers —
     the classic hybrid-TM result that a little STM traffic collapses
     HTM throughput.

   Plus the liveness piece: threads killed by {!Sim.Fault} inside the
   STM commit window (between lock acquisition and write-back) must not
   strand the machine — survivors steal the dead threads' versioned
   locks and keep committing, with the watchdog armed to prove it. *)

let span = 48
(* stores per big transaction: comfortably past the 32-word store
   buffer, so every big transaction overflows the hardware *)

type policy = { pol_name : string; pol_config : Htm.config }

let policies =
  [
    { pol_name = "htm-tle"; pol_config = { Htm.default_config with tle = Htm.Tle_after 6 } };
    { pol_name = "hybrid"; pol_config = Htm.hybrid_config };
    {
      pol_name = "stm-only";
      pol_config = { Htm.default_config with stm = Htm.Stm_after 0 };
    };
    { pol_name = "tle-only"; pol_config = { Htm.default_config with tle = Htm.Tle_after 0 } };
  ]

let default_threads = [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Big-transaction grid: policy x thread count x sharing.              *)
(* ------------------------------------------------------------------ *)

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

let run_grid pol ~shared ~threads ~duration ~seed =
  let m =
    Driver.machine ~htm_config:pol.pol_config ~seed
      ~label:
        (Printf.sprintf "fallback/%s/%s/x%d" pol.pol_name
           (if shared then "shared" else "disjoint")
           threads)
      ()
  in
  let regions =
    if shared then
      let base = Simmem.malloc m.mem m.boot span in
      Array.make threads base
    else Array.init threads (fun _ -> Simmem.malloc m.mem m.boot span)
  in
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          let base = regions.(i) in
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                Htm.atomic m.htm ctx (fun tx ->
                    for j = 0 to span - 1 do
                      Htm.write tx (base + j) (Htm.read tx (base + j) + 1)
                    done)))
  in
  Sim.run ~seed bodies;
  let total = Array.fold_left ( + ) 0 ops in
  let st = Htm.stats m.htm in
  {
    gr_policy = pol.pol_name;
    gr_threads = threads;
    gr_shared = shared;
    gr_tput = Driver.ops_per_us ~ops:total ~duration;
    gr_attempts_hw = st.attempts_hw;
    gr_attempts_stm = st.attempts_stm;
    gr_attempts_tle = st.attempts_tle;
    gr_escalations = st.escalations_stm;
    gr_fallbacks = st.lock_fallbacks;
    gr_stm_commits = st.stm_commits;
  }

(* ------------------------------------------------------------------ *)
(* Interference: big software writers vs small hardware readers.       *)
(* ------------------------------------------------------------------ *)

type interf_result = {
  ir_big_writers : int;
  ir_small_tput : float;  (** hardware-path ops/us across the 8 small threads *)
  ir_big_tput : float;
  ir_small_conflicts : int;  (** hardware conflict aborts suffered by everyone *)
  ir_escalations : int;
}

let small_threads = 8

let run_interference ~big ~duration ~seed =
  let m =
    Driver.machine ~htm_config:Htm.hybrid_config ~seed
      ~label:(Printf.sprintf "fallback/interf/%dbig" big)
      ()
  in
  (* The small threads' counters live inside the big writers' region, so
     every software write-back invalidates the hardware readers. *)
  let base = Simmem.malloc m.mem m.boot span in
  let deadline = Driver.warmup + duration in
  let small_ops = Array.make small_threads 0 in
  let big_ops = Array.make (max big 1) 0 in
  let small i ctx =
    small_ops.(i) <-
      Driver.measured_loop ctx ~deadline (fun () ->
          Htm.atomic m.htm ctx (fun tx ->
              let a = base + (i * 2) in
              Htm.write tx a (Htm.read tx a + 1)))
  in
  let big_writer i ctx =
    big_ops.(i) <-
      Driver.measured_loop ctx ~deadline (fun () ->
          Htm.atomic m.htm ctx (fun tx ->
              for j = 0 to span - 1 do
                Htm.write tx (base + j) (Htm.read tx (base + j) + 1)
              done))
  in
  let bodies =
    Array.init (small_threads + big) (fun i ->
        if i < small_threads then small i else big_writer (i - small_threads))
  in
  Sim.run ~seed bodies;
  let st = Htm.stats m.htm in
  {
    ir_big_writers = big;
    ir_small_tput =
      Driver.ops_per_us ~ops:(Array.fold_left ( + ) 0 small_ops) ~duration;
    ir_big_tput = Driver.ops_per_us ~ops:(Array.fold_left ( + ) 0 big_ops) ~duration;
    ir_small_conflicts = st.aborts_conflict;
    ir_escalations = st.escalations_stm;
  }

(* ------------------------------------------------------------------ *)
(* Liveness under mid-commit crashes.                                  *)
(* ------------------------------------------------------------------ *)

type chaos_result = {
  ch_kills : int;  (** threads killed inside the STM commit window *)
  ch_survivor_ops : int;
  ch_steals : int;  (** versioned locks recovered from the corpses *)
  ch_torn : int;  (** words disagreeing at quiescence — must be 0 *)
}

let chaos_deadline = 2_000_000
let chaos_watchdog = 1_000_000

let run_chaos ~seed =
  let m =
    Driver.machine
      ~htm_config:{ Htm.default_config with stm = Htm.Stm_after 0 }
      ~seed ~label:"fallback/chaos" ()
  in
  let base = Simmem.malloc m.mem m.boot span in
  let threads = 6 in
  let faults =
    Sim.Fault.make
      {
        Sim.Fault.none with
        fault_seed = 0xfa11;
        kills_at_point =
          [ (0, "stm.commit", 400_000); (1, "stm.commit", 900_000) ];
      }
  in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          while Sim.clock ctx < chaos_deadline do
            Driver.tick_dispatch ctx;
            Htm.atomic m.htm ctx (fun tx ->
                let v = Htm.read tx base + 1 in
                for j = 0 to span - 1 do
                  Htm.write tx (base + j) v
                done);
            ops.(i) <- ops.(i) + 1;
            Sim.note_progress ctx
          done)
  in
  Sim.run ~seed ~faults ~watchdog:chaos_watchdog bodies;
  let v0 = Simmem.peek m.mem base in
  let torn = ref 0 in
  for j = 1 to span - 1 do
    if Simmem.peek m.mem (base + j) <> v0 then incr torn
  done;
  let st = Htm.stats m.htm in
  {
    ch_kills = Sim.Fault.kills faults;
    ch_survivor_ops = Array.fold_left ( + ) 0 ops;
    ch_steals = st.stm_steals;
    ch_torn = !torn;
  }

(* ------------------------------------------------------------------ *)
(* Cells, summary, tables.                                             *)
(* ------------------------------------------------------------------ *)

type piece =
  | Grid of grid_result
  | Interf of interf_result
  | Chaos of chaos_result

type summary = {
  grid : grid_result list;
  interference : interf_result list;
  chaos : chaos_result list;
}

let default_big = [ 0; 1; 2; 4 ]

(* One cell per point, in canonical sweep order. *)
let cells ?(threads = default_threads) ?(big = default_big) ?(duration = 300_000)
    ?(seed = 19) () =
  List.concat_map
    (fun shared ->
      List.concat_map
        (fun n ->
          List.map
            (fun pol ->
              Runner.Cell.v
                ~label:
                  (Printf.sprintf "fallback/%s/%s/x%d"
                     (if shared then "shared" else "disjoint")
                     pol.pol_name n)
                (fun () -> Grid (run_grid pol ~shared ~threads:n ~duration ~seed)))
            policies)
        threads)
    [ true; false ]
  @ List.map
      (fun m ->
        Runner.Cell.v ~label:(Printf.sprintf "fallback/interf/%dbig" m) (fun () ->
            Interf (run_interference ~big:m ~duration ~seed)))
      big
  @ [ Runner.Cell.v ~label:"fallback/chaos" (fun () -> Chaos (run_chaos ~seed)) ]

let summary_of_pieces pieces =
  {
    grid = List.filter_map (function Grid g -> Some g | _ -> None) pieces;
    interference = List.filter_map (function Interf i -> Some i | _ -> None) pieces;
    chaos = List.filter_map (function Chaos c -> Some c | _ -> None) pieces;
  }

let fi = float_of_int

let grid_table ~shared (grid : grid_result list) =
  let grid = List.filter (fun g -> g.gr_shared = shared) grid in
  let threads = List.sort_uniq Int.compare (List.map (fun g -> g.gr_threads) grid) in
  let column n = Printf.sprintf "%dT" n in
  Obs.Table.pivot
    ~title:
      (if shared then
         "Fallback policies: 48-store transactions, one shared region (full conflict)"
       else "Fallback policies: 48-store transactions, disjoint per-thread regions")
    ~xlabel:"policy" ~unit:"ops/us"
    ~rows:(List.map (fun pol -> (pol.pol_name, pol.pol_name)) policies)
    ~columns:(List.map column threads)
    ~key:(fun g -> (g.gr_policy, column g.gr_threads))
    ~value:(fun g -> g.gr_tput) grid

let detail_table (grid : grid_result list) =
  let at8 =
    List.filter (fun g -> g.gr_shared && g.gr_threads = List.fold_left max 1 default_threads) grid
  in
  Obs.Table.counts ~title:"Where the attempts went (shared region, widest sweep point)"
    ~xlabel:"policy" ~unit:"counts"
    ~columns:
      [ "attempts-hw"; "attempts-stm"; "attempts-tle"; "escalations"; "lock-fallbacks";
        "stm-commits" ]
    (fun g ->
      ( g.gr_policy,
        [ g.gr_attempts_hw; g.gr_attempts_stm; g.gr_attempts_tle; g.gr_escalations;
          g.gr_fallbacks; g.gr_stm_commits ] ))
    at8

let interference_table (interference : interf_result list) : Obs.Table.table =
  {
    title =
      Printf.sprintf
        "Hybrid interference: M big software writers vs %d one-word hardware txs"
        small_threads;
    xlabel = "big writers";
    unit = "ops/us / counts";
    columns = [ "small ops/us"; "big ops/us"; "conflict-aborts"; "escalations" ];
    rows =
      List.map
        (fun r ->
          ( Printf.sprintf "M=%d" r.ir_big_writers,
            [ Some r.ir_small_tput; Some r.ir_big_tput;
              Some (fi r.ir_small_conflicts); Some (fi r.ir_escalations) ] ))
        interference;
  }

let chaos_table =
  Obs.Table.counts
    ~title:"Liveness: threads killed inside the STM commit window (locks held)"
    ~xlabel:"run" ~unit:"counts"
    ~columns:[ "kills"; "survivor-ops"; "lock-steals"; "torn-words" ]
    (fun c ->
      ("stm-only, 6 threads", [ c.ch_kills; c.ch_survivor_ops; c.ch_steals; c.ch_torn ]))

let grid_note =
  "Shared region: every transaction overflows the store buffer and all\n\
   conflict, so throughput ranks by overhead-per-doomed-attempt:\n\
   tle-only (straight to the lock) > hybrid / stm-only > htm-tle (burns\n\
   its hardware retry budget first). Disjoint regions flip the story:\n\
   the TL2 slow path commits in parallel while tle-only serialises\n\
   everything behind one lock — the case that pays for the STM.\n"

let interference_note =
  "The small transactions fit in hardware and touch one word each; the\n\
   big writers escalate to the software path and write the whole region.\n\
   Each software write-back bumps the word versions the hardware readers\n\
   validated, aborting them — small-tx throughput collapses as M grows,\n\
   the classic hybrid-TM interference result.\n"

let chaos_note =
  "Two threads die at the [stm.commit] fault point, between versioned-\n\
   lock acquisition and write-back. Survivors observe the stale\n\
   heartbeats, steal the dead threads' locks and keep committing under\n\
   an armed watchdog; zero torn words because the kill window precedes\n\
   the first write-back.\n"

(* The rendered tables with their notes, in report order. *)
let tables (s : summary) =
  [
    (grid_table ~shared:true s.grid, "");
    (grid_table ~shared:false s.grid, grid_note);
    (detail_table s.grid, "");
    (interference_table s.interference, interference_note);
    (chaos_table s.chaos, chaos_note);
  ]
