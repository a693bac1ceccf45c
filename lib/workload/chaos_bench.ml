(* The survivability experiment the paper only argued for (§1, §7):
   crash threads mid-operation and check that the HTM-based algorithms
   stay well-formed with bounded leakage, while the counter-based schemes
   (ListHoHRC, DynamicBaseline) pin memory permanently; then drive every
   algorithm through Rock-grade environmental adversity (spurious aborts,
   preemption stalls) and show the TLE fallback keeps them all live.

   Everything here is deterministic: fault plans are seed-derived
   ({!Sim.Fault}), so a fixed seed reproduces the same kills at the same
   virtual-time points, the same spec-checker verdicts and the same leak
   numbers, run after run. *)

let deadline = 2_600_000
let watchdog_budget = 1_000_000

(* ------------------------------------------------------------------ *)
(* Scenario A: thread crashes against the collect algorithms.          *)
(* ------------------------------------------------------------------ *)

type crash_result = {
  cr_algo : string;
  cr_kills : int;
  cr_stalls : int;
  cr_ops : int;  (** operations completed by surviving threads *)
  cr_checked_collects : int;
  cr_checked_values : int;
  cr_live_faulty : int;  (** live words at quiescence, crashy run *)
  cr_live_control : int;  (** live words at quiescence, fault-free control *)
  cr_pinned_faulty : int;  (** live words after an honest destroy, crashy run *)
  cr_pinned_control : int;  (** same for the control run: the structural floor *)
  cr_fault_trace : string;
}

(* Words an honest destroy could not reclaim *because of the crashes*: the
   faulty run's post-destroy residue minus the control run's structural
   floor (the TLE lock word and suchlike, present either way). Zero for
   the HTM algorithms; the crashed reader's pinned nodes for the
   counter-based schemes. *)
let cr_crash_pinned c = c.cr_pinned_faulty - c.cr_pinned_control

(* The checked churn every spec-checked scenario runs: 2 collectors and 6
   churners; each churner registers one handle, updates it until the
   deadline and deregisters it, and every operation goes through the
   §2.3 spec checker. [diag] renders the HTM statistics into the
   watchdog's report. Returns the machine, the instance, the checker and
   the operations completed. Raises [Sim.Watchdog] if the machine ever
   stopped committing progress. *)
let checked_churn ?htm_config ?faults ?diag ~label ~seed (maker : Collect.Intf.maker) =
  let m = Driver.machine ?htm_config ~seed ~label () in
  let churners = 6 in
  let threads = churners + 2 in
  let cfg = { Collect.Intf.default_cfg with num_threads = threads; max_slots = 8 * threads } in
  let inst = maker.make m.htm m.boot cfg in
  let spec = Collect_spec.create () in
  let ops = ref 0 in
  let churner ctx =
    let h = Collect_spec.register spec inst ctx in
    Sim.note_progress ctx;
    while Sim.clock ctx < deadline do
      Driver.tick_dispatch ctx;
      Collect_spec.update spec inst ctx h;
      Sim.note_progress ctx;
      incr ops
    done;
    Collect_spec.deregister spec inst ctx h;
    Sim.note_progress ctx
  in
  let collector ctx =
    while Sim.clock ctx < deadline do
      Driver.tick_dispatch ctx;
      Collect_spec.collect spec inst ctx;
      Sim.note_progress ctx;
      incr ops
    done
  in
  Sim.run ~seed ?faults ~watchdog:watchdog_budget
    ?diag:(Option.map (fun d () -> d (Htm.stats m.htm)) diag)
    (Array.init threads (fun i -> if i < 2 then collector else churner));
  (m, inst, spec, !ops)

(* Deterministic kill schedule: two churners and one collector die
   mid-measurement, at fixed virtual times — mid-operation with whatever
   partial state their next scheduling point catches them in. *)
let crash_spec =
  {
    Sim.Fault.none with
    fault_seed = 0xc4a5;
    stall_rate = 0.0005;
    stall_cycles = 4_000;
    kills_at = [ (0, 1_600_000); (3, 1_400_000); (5, 1_900_000) ];
  }

let collect_crash_one ?(seed = 7) (maker : Collect.Intf.maker) =
  (* (ops, verdict, live_at_quiesce, pinned_after_destroy) of one checked
     churn. Raises [Collect_spec.Violation] if any collect was incorrect. *)
  let crash_run faults =
    let m, inst, spec, ops =
      checked_churn ?faults ~label:("chaos/" ^ maker.algo_name) ~seed maker
        ~diag:(fun st ->
          Printf.sprintf
            "  htm: %d commits, %d fallbacks, aborts c/o/i/e/l/s = %d/%d/%d/%d/%d/%d\n"
            st.commits st.lock_fallbacks st.aborts_conflict st.aborts_overflow
            st.aborts_illegal st.aborts_explicit st.aborts_lock st.aborts_spurious)
    in
    (* Quiescent: survivors deregistered; only crashed threads' handles are
       still registered. One last checked collect from the boot context
       must see exactly those. *)
    Collect_spec.collect spec inst m.boot;
    let verdict = Collect_spec.check spec in
    let live = (Simmem.stats m.mem).live_words in
    inst.destroy m.boot;
    (ops, verdict, live, (Simmem.stats m.mem).live_words)
  in
  let faults = Sim.Fault.make crash_spec in
  let ops, verdict, live_faulty, pinned = crash_run (Some faults) in
  let _, _, live_control, pinned_control = crash_run None in
  {
    cr_algo = maker.algo_name;
    cr_kills = Sim.Fault.kills faults;
    cr_stalls = Sim.Fault.stalls faults;
    cr_ops = ops;
    cr_checked_collects = verdict.Collect_spec.checked_collects;
    cr_checked_values = verdict.Collect_spec.checked_values;
    cr_live_faulty = live_faulty;
    cr_live_control = live_control;
    cr_pinned_faulty = pinned;
    cr_pinned_control = pinned_control;
    cr_fault_trace = Sim.Fault.trace faults;
  }

(* ------------------------------------------------------------------ *)
(* Scenario B: thread crashes against the queues.                      *)
(* ------------------------------------------------------------------ *)

type queue_result = {
  qr_queue : string;
  qr_kills : int;
  qr_enqueued : int;  (** enqueues started (crash-interrupted included) *)
  qr_dequeued : int;  (** values dequeued by survivors + the final drain *)
  qr_lost : int;  (** enqueue-intents that never surfaced (crashed ops) *)
  qr_live_quiesce : int;  (** live words after the drain, before destroy *)
  qr_pinned : int;  (** live words after destroy *)
}

exception Queue_violation of string

let queue_crash_one ?(seed = 7) (maker : Hqueue.Intf.maker) =
  let m = Driver.machine ~seed ~label:("crash/" ^ maker.queue_name) () in
  let threads = 8 in
  let inst = maker.make m.htm m.boot ~num_threads:(threads + 1) in
  let next_value = ref 0 in
  let enq_intents = Hashtbl.create 4096 in
  let dequeued = Hashtbl.create 4096 in
  (* Record the intent *before* the operation: a crashed enqueue may or may
     not have landed, and both outcomes must be recognised later. Record
     dequeues *after* the operation: a crashed dequeue may lose its value,
     which is the crashed consumer's prerogative. *)
  let take v =
    if v = 0 then raise (Queue_violation "dequeued the reserved value 0");
    if not (Hashtbl.mem enq_intents v) then
      raise (Queue_violation (Printf.sprintf "dequeued fabricated value %d" v));
    if Hashtbl.mem dequeued v then
      raise (Queue_violation (Printf.sprintf "value %d dequeued twice" v));
    Hashtbl.replace dequeued v ()
  in
  let producer ctx =
    while Sim.clock ctx < deadline do
      Driver.tick_dispatch ctx;
      incr next_value;
      let v = !next_value in
      Hashtbl.replace enq_intents v ();
      inst.enqueue ctx v;
      Sim.note_progress ctx
    done
  in
  let consumer ctx =
    while Sim.clock ctx < deadline do
      Driver.tick_dispatch ctx;
      (match inst.dequeue ctx with Some v -> take v | None -> ());
      Sim.note_progress ctx
    done
  in
  let bodies = Array.init threads (fun i -> if i land 1 = 0 then producer else consumer) in
  let faults =
    Sim.Fault.make
      {
        Sim.Fault.none with
        fault_seed = 0xbeef;
        kills_at = [ (2, 1_500_000); (5, 1_900_000) ] (* one producer, one consumer *);
      }
  in
  Sim.run ~seed ~faults ~watchdog:watchdog_budget bodies;
  (* Drain from the boot context: everything still in the queue must be a
     recorded intent and must not have been handed out before. *)
  let rec drain () =
    match inst.dequeue m.boot with
    | Some v ->
      take v;
      drain ()
    | None -> ()
  in
  drain ();
  let live = (Simmem.stats m.mem).live_words in
  inst.destroy m.boot;
  let pinned = (Simmem.stats m.mem).live_words in
  {
    qr_queue = maker.queue_name;
    qr_kills = Sim.Fault.kills faults;
    qr_enqueued = Hashtbl.length enq_intents;
    qr_dequeued = Hashtbl.length dequeued;
    qr_lost = Hashtbl.length enq_intents - Hashtbl.length dequeued;
    qr_live_quiesce = live;
    qr_pinned = pinned;
  }

(* ------------------------------------------------------------------ *)
(* Scenario C: Rock-grade environmental adversity — spurious aborts    *)
(* and preemption stalls, survived through the TLE fallback.           *)
(* ------------------------------------------------------------------ *)

type spurious_result = {
  sp_algo : string;
  sp_ops : int;
  sp_spurious : int;  (** spurious aborts suffered (from {!Htm.stats}) *)
  sp_fallbacks : int;  (** TLE lock acquisitions *)
  sp_max_consec : int;  (** worst retry chain before a commit *)
  sp_slowest_commit : int;  (** top occupied cycles-to-commit bucket *)
  sp_checked_collects : int;
}

let spurious_one ?(seed = 7) ?(rate = 0.15) (maker : Collect.Intf.maker) =
  let faults =
    Sim.Fault.make
      {
        Sim.Fault.none with
        fault_seed = 0x5eed;
        stall_rate = 0.001;
        stall_cycles = 3_000;
        spurious_abort_rate = rate;
      }
  in
  let m, inst, spec, ops =
    checked_churn ~htm_config:{ Htm.default_config with tle = Htm.Tle_after 6 } ~faults
      ~label:("spurious/" ^ maker.algo_name) ~seed maker
  in
  let verdict = Collect_spec.check spec in
  inst.destroy m.boot;
  let st = Htm.stats m.htm in
  let slowest =
    List.fold_left (fun acc (b, _) -> max acc b) 0 (Htm.commit_cycles_histogram m.htm)
  in
  {
    sp_algo = maker.algo_name;
    sp_ops = ops;
    sp_spurious = st.aborts_spurious;
    sp_fallbacks = st.lock_fallbacks;
    sp_max_consec = st.max_consecutive_aborts;
    sp_slowest_commit = slowest;
    sp_checked_collects = verdict.Collect_spec.checked_collects;
  }

(* ------------------------------------------------------------------ *)
(* Scenario D: crashes aimed at the STM commit window. The collect      *)
(* algorithm runs entirely on the TL2 software path, and the fault plan *)
(* kills threads at the [stm.commit] point — after versioned-lock       *)
(* acquisition, before write-back — so survivors must steal the locks   *)
(* to keep the machine live.                                            *)
(* ------------------------------------------------------------------ *)

type stm_crash_result = {
  st_kills : int;  (** threads killed while holding STM versioned locks *)
  st_ops : int;  (** operations completed by survivors *)
  st_steals : int;  (** locks recovered from the corpses *)
  st_checked_collects : int;  (** spec-checked collects (all passed) *)
  st_stm_commits : int;
}

let stm_crash_one ?(seed = 7) () =
  let faults =
    Sim.Fault.make
      {
        Sim.Fault.none with
        fault_seed = 0x57ea1;
        kills_at_point =
          [ (3, "stm.commit", 1_200_000); (5, "stm.commit", 1_600_000) ];
      }
  in
  let m, inst, spec, ops =
    checked_churn ~htm_config:{ Htm.default_config with stm = Htm.Stm_after 0 } ~faults
      ~label:"chaos/stm-crash" ~seed
      ~diag:(fun st ->
        Printf.sprintf "  stm: %d commits, %d steals\n" st.stm_commits st.stm_steals)
      (Option.get (Collect.find_maker "ListFastCollect"))
  in
  Collect_spec.collect spec inst m.boot;
  let verdict = Collect_spec.check spec in
  let st = Htm.stats m.htm in
  {
    st_kills = Sim.Fault.kills faults;
    st_ops = ops;
    st_steals = st.stm_steals;
    st_checked_collects = verdict.Collect_spec.checked_collects;
    st_stm_commits = st.stm_commits;
  }

(* ------------------------------------------------------------------ *)
(* The full experiment and its rendering.                              *)
(* ------------------------------------------------------------------ *)

type summary = {
  crashes : crash_result list;
  queues : queue_result list;
  spurious : spurious_result list;
  stm_crashes : stm_crash_result list;
}

(** One scenario run against one algorithm — the unit of parallelism. *)
type piece =
  | Crash of crash_result
  | Queue of queue_result
  | Spurious of spurious_result
  | Stm_crash of stm_crash_result

(* One cell per (scenario x algorithm), in canonical sweep order. *)
let cells ?(seed = 7) () =
  List.map
    (fun (mk : Collect.Intf.maker) ->
      Runner.Cell.v ~label:("chaos/crash/" ^ mk.algo_name) (fun () ->
          Crash (collect_crash_one ~seed mk)))
    Collect.all
  @ List.map
      (fun (mk : Hqueue.Intf.maker) ->
        Runner.Cell.v ~label:("chaos/queue/" ^ mk.queue_name) (fun () ->
            Queue (queue_crash_one ~seed mk)))
      Hqueue.all_with_extensions
  @ List.map
      (fun (mk : Collect.Intf.maker) ->
        Runner.Cell.v ~label:("chaos/spurious/" ^ mk.algo_name) (fun () ->
            Spurious (spurious_one ~seed mk)))
      Collect.all
  @ [
      Runner.Cell.v ~label:"chaos/stm-crash/ListFastCollect" (fun () ->
          Stm_crash (stm_crash_one ~seed ()));
    ]

let summary_of_pieces pieces =
  {
    crashes = List.filter_map (function Crash c -> Some c | _ -> None) pieces;
    queues = List.filter_map (function Queue q -> Some q | _ -> None) pieces;
    spurious = List.filter_map (function Spurious s -> Some s | _ -> None) pieces;
    stm_crashes = List.filter_map (function Stm_crash s -> Some s | _ -> None) pieces;
  }

let crash_table =
  Obs.Table.counts
    ~title:"Thread crashes mid-operation (3 of 8 threads killed): \
            spec verdicts and leakage"
    ~xlabel:"algorithm" ~unit:"words / counts"
    ~columns:
      [ "kills"; "ops-survived"; "collects-ok"; "live@quiesce"; "live-control";
        "crash-pinned" ]
    (fun c ->
      ( c.cr_algo,
        [ c.cr_kills; c.cr_ops; c.cr_checked_collects; c.cr_live_faulty;
          c.cr_live_control; cr_crash_pinned c ] ))

let queue_table =
  Obs.Table.counts ~title:"Thread crashes against the queues (2 of 8 threads killed)"
    ~xlabel:"queue" ~unit:"words / counts"
    ~columns:[ "kills"; "enq-started"; "deq-total"; "lost-in-crash"; "live@quiesce" ]
    (fun q ->
      ( q.qr_queue,
        [ q.qr_kills; q.qr_enqueued; q.qr_dequeued; q.qr_lost; q.qr_live_quiesce ] ))

let spurious_table =
  Obs.Table.counts
    ~title:"Spurious aborts at 15% per attempt, TLE after 6 (all runs \
            completed; watchdog silent)"
    ~xlabel:"algorithm" ~unit:"counts"
    ~columns:[ "ops"; "spurious-aborts"; "lock-fallbacks"; "max-consec-aborts";
               "slowest-commit-2^k" ]
    (fun s ->
      ( s.sp_algo,
        [ s.sp_ops; s.sp_spurious; s.sp_fallbacks; s.sp_max_consec; s.sp_slowest_commit ] ))

let crash_note =
  "Every collect above passed the full #2.3 specification check after\n\
   the kills. 'live@quiesce' minus 'live-control' is the bounded leak a\n\
   crash costs (the dead threads' still-registered handles);\n\
   'crash-pinned' is what an honest destroy could not reclaim relative\n\
   to the fault-free control: zero (or the dead handles' cells) for the\n\
   HTM algorithms, permanently pinned nodes for the reference-counting\n\
   schemes, whose crashed readers hold pins forever.\n"

let queue_note =
  "No queue handed out a duplicated or fabricated value; 'lost' values\n\
   vanished inside crashed operations, which the sequential spec\n\
   permits.\n"

let spurious_note =
  "With a 15% per-attempt spurious abort rate every algorithm still\n\
   completed every operation: the TLE lock bounds the retry chain, and\n\
   the escalation tail shows up in max-consec-aborts and the\n\
   cycles-to-commit histogram.\n"

let stm_crash_table =
  Obs.Table.counts
    ~title:"Crashes inside the STM commit window (ListFastCollect, software path)"
    ~xlabel:"run" ~unit:"counts"
    ~columns:[ "kills"; "ops-survived"; "lock-steals"; "collects-ok"; "stm-commits" ]
    (fun s ->
      ( "stm-forced, 2 of 8 killed",
        [ s.st_kills; s.st_ops; s.st_steals; s.st_checked_collects; s.st_stm_commits ] ))

let stm_crash_note =
  "The kills fire at the [stm.commit] fault point: the victims die\n\
   holding versioned write-locks, after validation, before write-back.\n\
   Survivors watch the owners' heartbeats, steal the stale locks and\n\
   keep committing under the armed watchdog; every collect still passed\n\
   the full #2.3 specification check.\n"

(* The rendered tables with their explanatory notes, in report
   order — what [report] prints and the bench registry captures. *)
let tables (s : summary) =
  [
    (crash_table s.crashes, crash_note);
    (queue_table s.queues, queue_note);
    (spurious_table s.spurious, spurious_note);
    (stm_crash_table s.stm_crashes, stm_crash_note);
  ]
