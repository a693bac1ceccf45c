(* Observer-sink cost: one queue-x16 cell rerun with each sink attached
   through [Driver.set_obs], against the same cell with none. Observing
   costs zero virtual cycles, so every observed run must reproduce the
   bare run's digest. *)

open Workload

let sinks =
  [
    ("tracer", fun () -> { Driver.no_obs with obs_tracer = Some (Obs.Tracer.create ()) });
    ("profiler", fun () -> { Driver.no_obs with obs_profile = true });
    ("forensics", fun () -> { Driver.no_obs with obs_forensics = true });
  ]

let names = List.map (fun (s, _) -> Printf.sprintf "obs.%s.overhead_frac" s) sinks

type result = {
  overheads : (string * float) list;  (** metric name, extra wall share *)
  attempted : int;
  failed : int;  (** failed runs, or observed runs whose digest moved *)
}

(* Rounds of the bare cell and each sink, in rotating order, until
   [budget_s] has passed (at least three). *)
let measure ~budget_s ~seed =
  let spec = List.hd (Option.get (Cells.find "queue-x16")).Cells.cells in
  let configs = ("none", fun () -> Driver.no_obs) :: sinks in
  let times = Hashtbl.create 8 in
  let bare = ref None and failed = ref 0 and attempted = ref 0 in
  let run (name, obs) =
    Driver.set_obs (obs ());
    let o = Cells.run_cell (Probe.create ~tracing:false) spec ~seed in
    Driver.set_obs Driver.no_obs;
    incr attempted;
    (match (o.result, !bare) with
     | Error _, _ -> incr failed
     | Ok _, None -> bare := Some o.digest
     | Ok _, Some d -> if not (String.equal d o.digest) then incr failed);
    Hashtbl.add times name (float_of_int o.run_ns)
  in
  let n = List.length configs in
  let t0 = Probe.now_ns () in
  let r = ref 0 in
  while !r < 3 || float_of_int (Probe.now_ns () - t0) /. 1e9 < budget_s do
    List.iteri (fun i _ -> run (List.nth configs ((i + !r) mod n))) configs;
    incr r
  done;
  let med name = Ladder.median (Hashtbl.find_all times name) in
  {
    overheads =
      List.map2 (fun (s, _) metric -> (metric, (med s /. med "none") -. 1.)) sinks names;
    attempted = !attempted;
    failed = !failed;
  }
