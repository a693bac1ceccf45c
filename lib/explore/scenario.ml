type outcome = Pass | Fail of string

type t = {
  scn_key : string;
  scn_descr : string;
  scn_threads : int;
  scn_ops : int;
  scn_model : Sim.Memmodel.t;
  scn_run :
    strategy:Sim.strategy ->
    seed:int ->
    faults:Sim.Fault.spec option ->
    record:Sim.recorder option ->
    trace:Trace.t option ->
    tracer:Obs.Tracer.sink option ->
    outcome;
}

exception Lin_violation of string
exception Wrong_result of string

let truncate_to n s = if String.length s <= n then s else String.sub s 0 n ^ " ..."

let catch_run f =
  match f () with
  | () -> Pass
  | exception Simmem.Fault flt ->
    Fail (Format.asprintf "memory fault: %a" Simmem.pp_fault flt)
  | exception Sim.Watchdog msg -> Fail ("watchdog: " ^ truncate_to 400 msg)
  | exception Htm.Retry_exhausted r ->
    Fail (Format.asprintf "transaction retries exhausted: %a" Htm.pp_abort_reason r)
  | exception Collect_spec.Violation msg -> Fail ("collect spec violated: " ^ msg)
  | exception Collect.Intf.Capacity_exceeded msg -> Fail ("capacity exceeded: " ^ msg)
  | exception Lin_violation msg -> Fail msg
  | exception Wrong_result msg -> Fail msg

(* Kills would leave half-performed operations out of the history (and the
   queue), so linearizability checking requires kill-free plans. *)
let without_kills = function
  | None -> None
  | Some (f : Sim.Fault.spec) ->
    Some { f with kill_rate = 0.; max_random_kills = 0; kills_at = []; kills_at_point = [] }

let has_kills = function
  | None -> false
  | Some (f : Sim.Fault.spec) ->
    (f.kill_rate > 0. && f.max_random_kills > 0)
    || f.kills_at <> [] || f.kills_at_point <> []

let watchdog_budget = 10_000_000

(* A scenario's machine is observed in two stages: the Perfetto tracer
   from creation, so a replay's timeline covers the structure's setup,
   and the text trace too once the threads start — the timeline that
   goes into artifacts. The scheduler reports to the same sinks, and the
   threads run under the liveness watchdog. *)
let observe mem ~tracer ~trace =
  Simmem.attach mem
    (List.filter_map Fun.id
       [ Option.map Simmem.tracer_sink tracer; Option.map Trace.sink trace ])

let run_threads mem ~strategy ~seed ~record ~faults ~tracer ~trace ~threads body =
  observe mem ~tracer ~trace;
  Sim.run ~seed ~strategy ?record ?observe:(Simmem.observer mem)
    ?faults:(Option.map Sim.Fault.make faults) ~watchdog:watchdog_budget
    (Array.init threads body)

let queue_lin ?key ?(htm_config = Htm.default_config) ?(model = Sim.Memmodel.sc)
    (mk : Hqueue.Intf.maker) ~threads ~ops =
  let key = match key with Some k -> k | None -> "queue:" ^ mk.queue_name in
  if threads * ops > Lin.max_ops then
    invalid_arg
      (Printf.sprintf "Scenario.queue_lin: %d*%d operations exceed Lin.max_ops" threads
         ops);
  let run ~strategy ~seed ~faults ~record ~trace ~tracer =
    let faults = without_kills faults in
    catch_run (fun () ->
      let mem = Simmem.create ~model () in
      observe mem ~tracer ~trace:None;
      let htm = Htm.create ~config:htm_config mem in
      let boot = Sim.boot ~seed () in
      let q = mk.make htm boot ~num_threads:threads in
      let hist = Lin.create () in
      let body i ctx =
        let rng = Sim.rng ctx in
        for k = 1 to ops do
          (if Sim.Rng.int rng 100 < 55 then begin
             let v = ((i + 1) * 1000) + k in
             let inv = Lin.stamp hist in
             q.enqueue ctx v;
             let res = Lin.stamp hist in
             Lin.add hist ~tid:i ~inv ~res (Lin.Enq v)
           end
           else begin
             let inv = Lin.stamp hist in
             let r = q.dequeue ctx in
             let res = Lin.stamp hist in
             Lin.add hist ~tid:i ~inv ~res (Lin.Deq r)
           end);
          Sim.note_progress ctx
        done
      in
      run_threads mem ~strategy ~seed ~record ~faults ~tracer ~trace ~threads body;
      (match Lin.check hist with Ok () -> () | Error msg -> raise (Lin_violation msg));
      q.destroy boot)
  in
  {
    scn_key = key;
    scn_descr =
      Printf.sprintf "linearizability of %s, %d threads x %d mixed ops" mk.queue_name
        threads ops;
    scn_threads = threads;
    scn_ops = ops;
    scn_model = model;
    scn_run = run;
  }

(* Unsynchronised read-modify-write counter whose threads run in disjoint
   virtual-time windows: correct under min-clock, racy under any strategy
   that reorders across windows. The explorer's smoke target: a seeded bug
   whose finding, shrinking and replay the tests assert on. *)
let racy_counter ?(model = Sim.Memmodel.sc) ~threads ~ops () =
  let run ~strategy ~seed ~faults ~record ~trace ~tracer =
    let faults = without_kills faults in
    catch_run (fun () ->
      let mem = Simmem.create ~model () in
      observe mem ~tracer ~trace:None;
      let boot = Sim.boot ~seed () in
      let addr = Simmem.malloc mem boot 1 in
      let window = (ops * 200) + 1000 in
      let body i ctx =
        Sim.advance_to ctx (i * window);
        for _ = 1 to ops do
          let v = Simmem.read mem ctx addr in
          Sim.tick ctx 25;
          Simmem.write mem ctx addr (v + 1);
          Sim.note_progress ctx
        done
      in
      run_threads mem ~strategy ~seed ~record ~faults ~tracer ~trace ~threads body;
      let total = Simmem.peek mem addr in
      if total <> threads * ops then
        raise
          (Wrong_result
             (Printf.sprintf "racy counter: %d increments observed, expected %d" total
                (threads * ops))))
  in
  {
    scn_key = "racy";
    scn_descr =
      Printf.sprintf "unsynchronised counter, %d threads x %d increments" threads ops;
    scn_threads = threads;
    scn_ops = ops;
    scn_model = model;
    scn_run = run;
  }

let collect_spec ?key ?(htm_config = Htm.default_config) ?(model = Sim.Memmodel.sc)
    (mk : Collect.Intf.maker) ~threads ~ops =
  let key = match key with Some k -> k | None -> "collect:" ^ mk.algo_name in
  let run ~strategy ~seed ~faults ~record ~trace ~tracer =
    catch_run (fun () ->
      let mem = Simmem.create ~model () in
      observe mem ~tracer ~trace:None;
      let htm = Htm.create ~config:htm_config mem in
      let boot = Sim.boot ~seed () in
      let cfg =
        {
          Collect.Intf.max_slots = threads * 4;
          num_threads = threads;
          step = Collect.Intf.Fixed 4;
          min_size = 2;
        }
      in
      let inst = mk.make htm boot cfg in
      let log = Collect_spec.create () in
      let body _i ctx =
        let rng = Sim.rng ctx in
        let h = Collect_spec.register log inst ctx in
        for _ = 1 to ops do
          (match Sim.Rng.int rng 3 with
          | 0 -> Collect_spec.collect log inst ctx
          | _ -> Collect_spec.update log inst ctx h);
          Sim.note_progress ctx
        done;
        Collect_spec.collect log inst ctx;
        Collect_spec.deregister log inst ctx h;
        Sim.note_progress ctx
      in
      run_threads mem ~strategy ~seed ~record ~faults ~tracer ~trace ~threads body;
      let (_ : Collect_spec.verdict) = Collect_spec.check log in
      (* a killed thread leaves its handle registered, so destroy (which
         requires quiescence) is only valid on kill-free plans *)
      if not (has_kills faults) then inst.destroy boot)
  in
  {
    scn_key = key;
    scn_descr =
      Printf.sprintf "Dynamic Collect spec of %s, %d threads x %d ops" mk.algo_name
        threads ops;
    scn_threads = threads;
    scn_ops = ops;
    scn_model = model;
    scn_run = run;
  }

let queues ?model ~threads ~ops () =
  List.map (fun mk -> queue_lin ?model mk ~threads ~ops) Hqueue.all_with_extensions

let collects ?model ~threads ~ops () =
  List.map (fun mk -> collect_spec ?model mk ~threads ~ops) Collect.all_with_extensions

let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.sub s 0 lp = p then
    Some (String.sub s lp (String.length s - lp))
  else None

(* Everything on the software path: escalate every transaction immediately
   ([Stm_after 0]), retry forever (budget 0, no TLE) — so the explorer and
   the linearizability checker drive the TL2 layer itself, not the
   hardware fast path. *)
let stm_forced = { Htm.default_config with stm = Htm.Stm_after 0 }

let build ~key ?model ~threads ~ops () =
  match key with
  | "racy" -> Ok (racy_counter ?model ~threads ~ops ())
  | "broken-rop" -> Ok (queue_lin ~key:"broken-rop" ?model Mutant.maker ~threads ~ops)
  | "ms-nofence" ->
    (* The StoreLoad-fence-dropping mutant: correct under [sc], unsafe
       under a buffered model — the memory-ordering hunting target. *)
    Ok (queue_lin ~key:"ms-nofence" ?model Mutant.nofence_maker ~threads ~ops)
  | "broken-epoch" ->
    (* The premature-free EBR mutant: one grace period instead of two, so
       a bucket is freed while a reader that announced the previous epoch
       can still hold pointers into it. Epoch advance on every retire
       makes the use-after-free reachable in a handful of operations. *)
    Ok
      (queue_lin ~key:"broken-epoch" ?model
         (Hqueue.Ms_epoch_queue.mk_maker ~grace:1 ~advance_every:1 "BrokenEpoch")
         ~threads ~ops)
  | "epoch-queue" ->
    (* The control: the correct two-grace-period queue under the same
       aggressive advance cadence must stay violation- and fault-free. *)
    Ok
      (queue_lin ~key:"epoch-queue" ?model
         (Hqueue.Ms_epoch_queue.mk_maker ~advance_every:1 "MichaelScott+EBR")
         ~threads ~ops)
  | "htm-memorder" -> (
    (* The HTM queue under whatever model the caller picked: strong
       atomicity must keep it violation-free under every variant. *)
    match Hqueue.find_maker "HTM" with
    | Some mk -> Ok (queue_lin ~key:"htm-memorder" ?model mk ~threads ~ops)
    | None -> Error "queue maker \"HTM\" missing")
  | "stm-queue" -> (
    match Hqueue.find_maker "HTM" with
    | Some mk ->
      Ok (queue_lin ~key:"stm-queue" ~htm_config:stm_forced ?model mk ~threads ~ops)
    | None -> Error "queue maker \"HTM\" missing")
  | "stm-collect" -> (
    match Collect.find_maker "ListFastCollect" with
    | Some mk ->
      Ok (collect_spec ~key:"stm-collect" ~htm_config:stm_forced ?model mk ~threads ~ops)
    | None -> Error "collect maker \"ListFastCollect\" missing")
  | _ -> (
    match strip_prefix "queue:" key with
    | Some name -> (
      match Hqueue.find_maker name with
      | Some mk -> Ok (queue_lin ?model mk ~threads ~ops)
      | None -> Error (Printf.sprintf "unknown queue %S" name))
    | None -> (
      match strip_prefix "collect:" key with
      | Some name -> (
        match Collect.find_maker name with
        | Some mk -> Ok (collect_spec ?model mk ~threads ~ops)
        | None -> Error (Printf.sprintf "unknown collect algorithm %S" name))
      | None ->
        Error
          (Printf.sprintf
             "unknown scenario %S (expected \"queue:NAME\", \"collect:NAME\", \
              \"racy\", \"broken-rop\", \"ms-nofence\", \"broken-epoch\", \
              \"epoch-queue\", \"htm-memorder\", \"stm-queue\" or \
              \"stm-collect\")"
             key)))
