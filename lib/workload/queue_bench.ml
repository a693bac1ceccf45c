(** Figure 1: throughput of a mixed enqueue/dequeue workload on the three
    queues, as the thread count grows. Each thread flips a fair coin per
    operation; the queue is pre-filled so dequeues mostly succeed. *)

type result = { queue : string; threads : int; throughput : float }

let coin_flip (m : Driver.machine) (maker : Hqueue.Intf.maker) ~threads ~prefill ~duration
    ~seed =
  let q = maker.make m.htm m.boot ~num_threads:threads in
  for _ = 1 to prefill do
    q.enqueue m.boot (Driver.fresh_value ())
  done;
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                if Sim.Rng.bool (Sim.rng ctx) then q.enqueue ctx (Driver.fresh_value ())
                else ignore (q.dequeue_drop ctx)))
  in
  Sim.run ~seed bodies;
  q.destroy m.boot;
  Array.fold_left ( + ) 0 ops

let run_one (maker : Hqueue.Intf.maker) ~threads ~duration ~prefill ~seed =
  let m =
    Driver.machine ~seed ~label:(Printf.sprintf "%s x%d" maker.queue_name threads) ()
  in
  let ops = coin_flip m maker ~threads ~prefill ~duration ~seed in
  { queue = maker.queue_name; threads; throughput = Driver.ops_per_us ~ops ~duration }

let default_threads = [ 2; 4; 6; 8; 10; 12; 14; 16 ]

(* One cell per (thread count x queue), in canonical sweep order. *)
let cells ?(threads = default_threads) ?(duration = 400_000) ?(prefill = 64) ?(seed = 11) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (mk : Hqueue.Intf.maker) ->
          Runner.Cell.v ~label:(Printf.sprintf "fig1/%s/x%d" mk.queue_name n) (fun () ->
              run_one mk ~threads:n ~duration ~prefill ~seed))
        Hqueue.all)
    threads

let to_table results =
  let threads = List.sort_uniq Int.compare (List.map (fun r -> r.threads) results) in
  Obs.Table.pivot ~title:"Figure 1: Queue throughput vs threads" ~xlabel:"threads"
    ~unit:"ops/us"
    ~rows:(List.map (fun n -> (string_of_int n, n)) threads)
    ~columns:(List.map (fun (m : Hqueue.Intf.maker) -> m.queue_name) Hqueue.all)
    ~key:(fun r -> (r.threads, r.queue))
    ~value:(fun r -> r.throughput) results
