(* The hazard reclaimer of [Hqueue.Ms_rop_queue] with one seeded defect
   each (mutant.mli says what each one breaks), and no region labels. *)

module Rop = Hqueue.Ms_rop_queue

let maker =
  Hqueue.Ms_core.maker "BrokenROP"
    { Rop.reclaimer with
      label = None;
      (* the defect: the "wait" of announcement-based reclamation removed —
         no retirement, no scan of announcements *)
      retire = (fun r ctx node -> Simmem.free (Rop.mem r) ctx node) }
    (Rop.init ~scan_threshold:max_int)

(* Scanning on every retire makes the bug reachable inside small explorer
   scenarios; the correct queue's amortized threshold exceeds their total
   operation count. *)
let nofence_maker =
  Hqueue.Ms_core.maker "NoFenceROP"
    { Rop.reclaimer with
      label = None;
      (* the defect: the store is issued but nothing forces it out of the
         store buffer before the validating re-read *)
      protect = Rop.store;
      exit =
        (fun r ctx ~slots ->
          for i = 0 to slots - 1 do
            Rop.store r ctx i 0
          done) }
    (Rop.init ~scan_threshold:1)
