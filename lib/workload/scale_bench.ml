(** The scaling study: fig1/fig3-shaped workloads at 16–256 simulated
    threads on million-word heaps.

    The paper stops at 16 threads because Rock did. The flat simulator
    core removes that practical ceiling, so this experiment re-asks the
    paper's two headline questions at modern core counts: does the
    Michael-Scott curve still flatten against the HTM queue (fig 1), and
    do HoHRC's collapse and SearchNo's overtaking survive (fig 3)?

    Machines here are built with [~threads] (so the heap sizes its sharer
    sets for the wide run) and [~heap_words] (a million-word initial
    extent, so heap growth never lands inside the measured window). The
    workloads are {!Queue_bench.coin_flip} and {!Collect_dominated.mix}
    themselves; only the population scales with the thread count. *)

type result = { subject : string; threads : int; throughput : float }

let heap_words = 1 lsl 20

let machine ~name ~threads ~seed =
  Driver.machine ~seed ~label:(Printf.sprintf "scale/%s x%d" name threads) ~threads
    ~heap_words ()

(* Queue cells: the fig1 loop at scale. Prefill grows with the thread
   count so the queue does not drain to the empty-queue fast path at 256
   threads. *)
let queue_one (maker : Hqueue.Intf.maker) ~threads ~duration ~seed =
  let m = machine ~name:maker.queue_name ~threads ~seed in
  let ops =
    Queue_bench.coin_flip m maker ~threads ~prefill:(4 * threads) ~duration ~seed
  in
  { subject = maker.queue_name; threads; throughput = Driver.ops_per_us ~ops ~duration }

(* Collect cells: the fig3 mix with the slot population scaled to the
   thread count — four slots of budget per thread, half registered before
   measurement — so a 256-thread collect really traverses a
   256-thread-sized structure instead of fig3's fixed 64 slots. *)
let collect_one (maker : Collect.Intf.maker) ~threads ~duration ~seed =
  let m = machine ~name:maker.algo_name ~threads ~seed in
  let ops =
    Collect_dominated.mix m maker ~threads ~budget:(4 * threads) ~per_thread:4
      ~pre_registered:2 ~step:(Collect.Intf.Fixed 32) ~duration ~seed
  in
  { subject = maker.algo_name; threads; throughput = Driver.ops_per_us ~ops ~duration }

let default_threads = [ 16; 64; 128; 256 ]
let queue_names = [ "HTM"; "MichaelScott"; "MichaelScott+ROP" ]

(* The three fig3 algorithms behind the headline shapes: the collapsing
   baseline, the overtaken linear-scan, and the overtaking winner. *)
let collect_names = [ "ListHoHRC"; "ArrayStatSearchNo"; "ArrayDynAppendDereg" ]

(* One cell per (thread count x subject): all queue cells first, then all
   collect cells, each block in canonical sweep order. *)
let cells ?(threads = default_threads) ?(duration = 200_000) ?(seed = 9) () =
  List.concat_map
    (fun n ->
      List.map
        (fun name ->
          let mk = Option.get (Hqueue.find_maker name) in
          Runner.Cell.v ~label:(Printf.sprintf "scale/queue/%s/x%d" name n) (fun () ->
              queue_one mk ~threads:n ~duration ~seed))
        queue_names)
    threads
  @ List.concat_map
      (fun n ->
        List.map
          (fun name ->
            let mk = Option.get (Collect.find_maker name) in
            Runner.Cell.v ~label:(Printf.sprintf "scale/collect/%s/x%d" name n)
              (fun () -> collect_one mk ~threads:n ~duration ~seed))
          collect_names)
      threads

let table ~title ~columns results =
  let threads = List.sort_uniq Int.compare (List.map (fun r -> r.threads) results) in
  Obs.Table.pivot ~title ~xlabel:"threads" ~unit:"ops/us"
    ~rows:(List.map (fun n -> (string_of_int n, n)) threads)
    ~columns ~key:(fun r -> (r.threads, r.subject)) ~value:(fun r -> r.throughput) results

let to_tables results =
  let qs, cs =
    List.partition (fun r -> List.mem r.subject queue_names) results
  in
  [
    table ~title:"Scale: queue throughput, 16-256 threads (fig 1 shape)"
      ~columns:queue_names qs;
    table ~title:"Scale: collect-dominated mix, 16-256 threads (fig 3 shape)"
      ~columns:collect_names cs;
  ]
