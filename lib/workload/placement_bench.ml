(** The malloc-placement ablation: the same workload under each
    {!Simmem.placement} policy, with the HTM conflict detector set to
    {!Htm.Line} granularity — the configuration under which allocator
    layout becomes transaction fate, the effect "The Influence of Malloc
    Placement on TSX Hardware Transactional Memory" measures on real
    silicon.

    Two structures, chosen for opposite sharing shapes:

    - {b counters}: the boot thread allocates one single-word counter per
      thread from its arena — under [Line_packed] eight of them share a
      cache line; under the isolating policies each gets its own — and
      every thread transactionally increments only {e its own} counter.
      There are no true conflicts at all: every abort and every coherence
      transfer is pure false sharing, manufactured by the allocator.
    - {b pairs}: the same shape with two-word records (a value and its
      version stamp, the classic seqlock pair) — four per line when
      packed — read and written together in one transaction. A different
      size class, so it exercises the arena's two-words-per-granule path.
    - {b queue}: the paper's HTM queue under the fig 1 coin-flip
      workload. Nodes are allocated by the enqueuing thread outside the
      transaction and freed post-commit by the dequeuer, so under
      [Line_packed] a neighbour's malloc (which zeroes and version-bumps
      the fresh block) or deferred free lands on lines that in-flight
      transactions of {e other} threads have read.

    Each cell reports throughput, the conflict-abort rate (aborts per
    hardware attempt) and the machine's coherence line transfers (the
    {!Obs.Profiler} ping-pong count, 0 when run unprofiled). The
    experiment also re-runs the fig 1 queue sweep on arena machines with
    Michael-Scott under epoch-based reclamation ({!Hqueue.ebr}) beside
    ROP and HTM — the modern quiescence-style competitor the paper
    predates. *)

type result = {
  structure : string;
  policy : string;  (** {!Simmem.placement_label} of the arena policy *)
  threads : int;
  throughput : float;  (** ops/us *)
  abort_rate : float;  (** conflict aborts per hardware attempt *)
  transfers : int;  (** coherence line transfers (0 when unprofiled) *)
}

type queue_result = { queue : string; q_threads : int; q_throughput : float }

type piece = P_ablation of result | P_fig1 of queue_result

let policies = [ Simmem.Line_packed; Simmem.Line_isolated; Simmem.Cache_index_aware ]

(* Line-granularity conflict detection: the idealized per-word default
   would hide the placement effect entirely (word detection never sees a
   neighbour's traffic), which is itself the experiment's control story —
   see docs/ALLOCATION.md. *)
let line_htm = { Htm.default_config with granularity = Htm.Line }

(* Each ablation cell runs one arena machine, labelled by its coordinates;
   the label finds the machine's profiler again for the snapshot. *)
let machine_label ~structure ~policy ~threads =
  Printf.sprintf "placement/%s/%s x%d" structure (Simmem.placement_label policy) threads

let arena_machine ~structure ~policy ~threads ~seed =
  Driver.machine ~htm_config:line_htm ~seed
    ~label:(machine_label ~structure ~policy ~threads)
    ~alloc:(Simmem.Arena policy) ()

let snapshot ~structure ~policy ~threads ~duration ~ops (m : Driver.machine) =
  let st = Htm.stats m.htm in
  {
    structure;
    policy = Simmem.placement_label policy;
    threads;
    throughput = Driver.ops_per_us ~ops ~duration;
    abort_rate =
      float_of_int st.aborts_conflict /. float_of_int (max 1 st.attempts_hw);
    transfers =
      (match
         List.assoc_opt (machine_label ~structure ~policy ~threads) (Driver.profilers ())
       with
      | Some p -> Obs.Profiler.total_transfers p
      | None -> 0);
  }

(* The conflict window: an instantaneous read-modify-write commits before
   any neighbour can slip a commit between its read and its validation,
   so a few hundred cycles of in-transaction compute (the real-world
   instructions between load and commit) is what turns a neighbour's line
   traffic into an abort. Sized above the hot line's coherence service
   interval: shorter windows let the transfer queue space the threads
   into a conflict-free rotation. *)
let think = 150

(* Pure false sharing: thread [i] transactionally increments counter [i]
   and nothing else, so with isolated counters the abort rate is zero by
   construction. All counters come from the boot thread's arena in one
   burst — the "producer allocates, workers use" pattern that packs them. *)
let counters_one ~policy ~threads ~duration ~seed =
  let m =
    arena_machine ~structure:"counters" ~policy ~threads ~seed
  in
  let counters = Array.init threads (fun _ -> Simmem.malloc m.mem m.boot 1) in
  Array.iter
    (fun c -> Simmem.label m.mem ~name:"Placement.counter" ~base:c ~words:1)
    counters;
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          let c = counters.(i) in
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                Htm.atomic m.htm ctx (fun tx ->
                    let v = Htm.read tx c in
                    Sim.tick ctx think;
                    Htm.write tx c (v + 1))))
  in
  Sim.run ~seed bodies;
  let total = Array.fold_left ( + ) 0 ops in
  snapshot ~structure:"counters" ~policy ~threads ~duration ~ops:total m

(* The two-word variant: value + version stamp updated together, four
   records per line when packed. A second, differently-shaped hot
   structure for the headline claim (and the granule-of-2 size class). *)
let pairs_one ~policy ~threads ~duration ~seed =
  let m =
    arena_machine ~structure:"pairs" ~policy ~threads ~seed
  in
  let recs = Array.init threads (fun _ -> Simmem.malloc m.mem m.boot 2) in
  Array.iter
    (fun r -> Simmem.label m.mem ~name:"Placement.pair" ~base:r ~words:2)
    recs;
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          let r = recs.(i) in
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                Htm.atomic m.htm ctx (fun tx ->
                    let v = Htm.read tx r in
                    let stamp = Htm.read tx (r + 1) in
                    Sim.tick ctx think;
                    Htm.write tx r (v + 1);
                    Htm.write tx (r + 1) (stamp + 1))))
  in
  Sim.run ~seed bodies;
  let total = Array.fold_left ( + ) 0 ops in
  snapshot ~structure:"pairs" ~policy ~threads ~duration ~ops:total m

(* The fig 1 coin-flip loop on the HTM queue, arena-allocated. *)
let queue_one ~policy ~threads ~duration ~seed =
  let maker = Option.get (Hqueue.find_maker "HTM") in
  let m = arena_machine ~structure:"queue" ~policy ~threads ~seed in
  let ops = Queue_bench.coin_flip m maker ~threads ~prefill:64 ~duration ~seed in
  snapshot ~structure:"queue" ~policy ~threads ~duration ~ops m

(* The reclamation competitor sweep: fig 1's loop and prefill, but on
   arena machines, with Michael-Scott+EBR as the third column. The
   isolating placement and the default word-granularity detector keep
   this a reclamation comparison rather than a placement one. *)
let competitor_names = [ "HTM"; "MichaelScott+ROP"; "MichaelScott+EBR" ]

let competitor_one name ~threads ~duration ~seed =
  let maker = Option.get (Hqueue.find_maker name) in
  let m =
    Driver.machine ~seed
      ~label:(Printf.sprintf "placement/fig1/%s x%d" name threads)
      ~alloc:(Simmem.Arena Simmem.Line_isolated) ()
  in
  let ops = Queue_bench.coin_flip m maker ~threads ~prefill:64 ~duration ~seed in
  { queue = name; q_threads = threads; q_throughput = Driver.ops_per_us ~ops ~duration }

let ablation_threads = [ 4; 8 ]
let structures = [ "counters"; "pairs"; "queue" ]
let competitor_threads = [ 2; 4; 8; 16 ]

(* One cell per (thread count x structure x policy), then the competitor
   block, each in canonical sweep order. *)
let cells ?(duration = 300_000) ?(seed = 7) () =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun s ->
          List.map
            (fun p ->
              let label =
                Printf.sprintf "placement/%s/%s/x%d" s (Simmem.placement_label p) n
              in
              let run =
                match s with
                | "counters" -> counters_one
                | "pairs" -> pairs_one
                | _ -> queue_one
              in
              Runner.Cell.v ~label (fun () ->
                  P_ablation (run ~policy:p ~threads:n ~duration ~seed)))
            policies)
        structures)
    ablation_threads
  @ List.concat_map
      (fun n ->
        List.map
          (fun name ->
            Runner.Cell.v
              ~label:(Printf.sprintf "placement/fig1/%s/x%d" name n)
              (fun () -> P_fig1 (competitor_one name ~threads:n ~duration ~seed)))
          competitor_names)
      competitor_threads

(* Profiled even standalone: the transfers column is the point. *)
let run ?jobs ?duration ?seed () =
  Runner.Sweep.values (Runner.Sweep.run ?jobs ~profile:true (cells ?duration ?seed ()))

let ablations pieces =
  List.filter_map (function P_ablation r -> Some r | P_fig1 _ -> None) pieces

let fig1_results pieces =
  List.filter_map (function P_fig1 r -> Some r | P_ablation _ -> None) pieces

let policy_columns = List.map Simmem.placement_label policies

let metric_table ~title ~unit metric results =
  Obs.Table.pivot ~title ~xlabel:"structure/threads" ~unit
    ~rows:
      (List.concat_map
         (fun s -> List.map (fun n -> (Printf.sprintf "%s/x%d" s n, (s, n))) ablation_threads)
         structures)
    ~columns:policy_columns
    ~key:(fun r -> ((r.structure, r.threads), r.policy))
    ~value:metric results

let to_tables pieces =
  let abl = ablations pieces in
  [
    metric_table ~title:"Placement ablation: throughput (line-granularity HTM)"
      ~unit:"ops/us" (fun r -> r.throughput) abl;
    metric_table ~title:"Placement ablation: conflict-abort rate"
      ~unit:"aborts per attempt" (fun r -> r.abort_rate) abl;
    metric_table ~title:"Placement ablation: coherence line transfers"
      ~unit:"transfers" (fun r -> float_of_int r.transfers) abl;
    Obs.Table.pivot ~title:"Placement: queue throughput on arena heaps (fig 1 shape, +EBR)"
      ~xlabel:"threads" ~unit:"ops/us"
      ~rows:(List.map (fun n -> (string_of_int n, n)) competitor_threads)
      ~columns:competitor_names
      ~key:(fun r -> (r.q_threads, r.queue))
      ~value:(fun r -> r.q_throughput) (fig1_results pieces);
  ]
