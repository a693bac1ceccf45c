(* The machine's observers: each is a fold over the heap's event stream
   ({!Heap.event}), attached with {!Heap.attach}; and the text rendering
   of an access, for the explorer's trace. *)

open Heap

let pp_access ppf = function
  | Read { addr; value } -> Format.fprintf ppf "read   %#x -> %d" addr value
  | Write { addr; value } -> Format.fprintf ppf "write  %#x <- %d" addr value
  | Cas { addr; expected; desired; success } ->
    Format.fprintf ppf "cas    %#x %d->%d %s" addr expected desired
      (if success then "ok" else "failed")
  | Fetch_add { addr; delta; old } -> Format.fprintf ppf "fadd   %#x +%d (was %d)" addr delta old
  | Malloc { base; words } -> Format.fprintf ppf "malloc %#x (%d words)" base words
  | Free { base; words } -> Format.fprintf ppf "free   %#x (%d words)" base words

(* The Perfetto rendering of the machine's events, the scheduler's run
   slices and fault instants among them. *)
let tracer_sink tr =
  let int key n = (key, Obs.Json.Int n) in
  let span ~tid name args t0 t1 = Obs.Tracer.span tr ~tid ~name ~cat:"tx" ~args t0 t1 in
  let instant ~tid name args t = Obs.Tracer.instant tr ~tid ~name ~cat:"tx" ~args t in
  let fault ~tid name args t = Obs.Tracer.instant tr ~tid ~name ~cat:"fault" ~args t in
  let fold ~tid ~clock = function
    | Access _ | Label _ -> ()
    | Miss { write; addr; sharers; cost; wait; _ } ->
      Obs.Tracer.instant tr ~tid ~cat:"mem"
        ~name:(if write then "miss.write" else "miss.read")
        ~args:[ int "addr" addr; int "cost" cost; int "wait" wait; int "sharers" sharers ]
        clock
    | Witness w ->
      (* A flow arrow from the aggressor's committed write to the
         victim's abort; only the last-writer journal knows the
         aggressor, so a tracer alone draws none. *)
      if w.w_aggressor >= 0 && w.w_aggressor_clock >= 0 then begin
        let id = Obs.Tracer.flow_id tr in
        let args = [ int "addr" w.w_addr; ("site", Obs.Json.Str w.w_site) ] in
        Obs.Tracer.flow_start tr ~tid:w.w_aggressor ~name:"conflict" ~cat:"forensics"
          ~args ~id w.w_aggressor_clock;
        Obs.Tracer.flow_finish tr ~tid:w.w_victim ~name:"conflict" ~cat:"forensics"
          ~args ~id w.w_clock
      end
    | Tx (Tx_commit { tx_path = P_tle; _ }) -> ()
    | Tx (Tx_commit { tx_reads; tx_writes; tx_path; tx_attempt; tx_start }) ->
      span ~tid
        (match tx_path with P_stm -> "tx.stm" | P_hw | P_tle -> "tx")
        [ int "attempt" tx_attempt; int "reads" tx_reads; int "writes" tx_writes ]
        tx_start clock
    | Tx (Tx_abort { ab_reason; ab_path; ab_attempt; ab_start; _ }) ->
      let args =
        [ ("reason", Obs.Json.Str (Txn.abort_label ab_reason)); int "attempt" ab_attempt ]
      in
      (match ab_path with
       | P_hw ->
         span ~tid "tx.attempt" [ int "attempt" ab_attempt ] ab_start clock;
         instant ~tid "tx.abort" args clock
       | P_stm | P_tle -> instant ~tid "tx.stm.abort" args clock)
    | Tx (Tx_fallback { fb_attempt }) ->
      instant ~tid "tle.fallback" [ int "attempt" fb_attempt ] clock
    | Tx (Tx_release { rl_attempt; rl_start }) ->
      span ~tid "tx.locked" [ int "attempt" rl_attempt ] rl_start clock
    | Hop { to_path = P_stm; attempt; _ } ->
      instant ~tid "stm.escalate" [ int "attempt" attempt ] clock
    | Hop { to_path = P_hw | P_tle; _ } -> ()
    | Tx (Tx_steal { st_victim; st_locks }) ->
      instant ~tid "stm.steal" [ int "victim" st_victim; int "locks" st_locks ] clock
    | Sched (Slice t0) -> Obs.Tracer.span tr ~tid ~name:"run" ~cat:"sched" t0 clock
    | Sched (Fault (Stalled d)) -> fault ~tid "fault.stall" [ int "cycles" d ] clock
    | Sched (Fault Killed) -> fault ~tid "fault.kill" [] clock
    | Sched (Fault (Killed_at p)) ->
      fault ~tid "fault.kill" [ ("point", Obs.Json.Str p) ] clock
    | Sched (Fault Spurious_abort) -> fault ~tid "fault.spurious" [] clock
  in
  { fold; accesses = false; journal = false }

let profiler_sink p =
  let fold ~tid:_ ~clock:_ = function
    | Miss { line; sharers; cost; wait; _ } ->
      Obs.Profiler.record_transfer p ~line ~wait ~cost ~sharers
    | Label { name; base; words } -> Obs.Profiler.label p ~name ~base ~words
    | Access _ | Witness _ | Hop _ | Tx _ | Sched _ -> ()
  in
  { fold; accesses = false; journal = false }

(* Forensics resolves aggressors from the last-writer journal; allocation
   provenance comes off the [Malloc] events every sink receives. *)
let forensics_sink f =
  let fold ~tid ~clock = function
    | Access (Malloc { base; words }) ->
      Obs.Forensics.note_alloc f ~base ~words ~tid ~clock
    | Label { name; base; words } -> Obs.Forensics.label f ~name ~base ~words
    | Witness w -> Obs.Forensics.record f w
    | Hop { from_path; to_path; reason; witness; _ } ->
      Obs.Forensics.note_hop f ~tid ~clock ~from_path:(Txn.path_label from_path)
        ~to_path:(Txn.path_label to_path) ~reason:(Txn.abort_label reason) witness
    | Access _ | Miss _ | Tx _ | Sched _ -> ()
  in
  { fold; accesses = false; journal = true }
