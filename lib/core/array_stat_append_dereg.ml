(** ArrayStatAppendDereg (paper §3.2.4): fixed-capacity array, append-based
    registration, compaction on every deregister. The stepping stone to
    {!Array_dyn_append_dereg} — the same two-word slots and operations
    from {!Array_common}, without the resize machinery, so it bounds
    capacity and never reclaims the array. *)

open Array_common

type t = {
  htm : Htm.t;
  hdr : int;
  capacity : int;
  stepper : Stepper.t;
}

let create htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let capacity = max 1 cfg.max_slots in
  let hdr = Simmem.malloc mem ctx 3 in
  let arr = Simmem.malloc mem ctx (slot_words * capacity) in
  Simmem.write mem ctx (hdr + hdr_array) arr;
  Simmem.write mem ctx (hdr + hdr_capacity) capacity;
  { htm; hdr; capacity; stepper = Stepper.make htm cfg.step ~max_step:(Htm.config htm).store_buffer }

let register t ctx v =
  let mem = Htm.mem t.htm in
  let slot_ref = Simmem.malloc mem ctx 1 in
  Htm.atomic t.htm ctx (fun tx ->
      let count = Htm.read tx (t.hdr + hdr_count) in
      if count >= t.capacity then
        raise (Collect_intf.Capacity_exceeded "ArrayStatAppendDereg");
      append tx ~hdr:t.hdr ~count slot_ref v);
  slot_ref

let deregister t ctx slot_ref =
  let mem = Htm.mem t.htm in
  Htm.atomic t.htm ctx (fun tx ->
      compact tx ~hdr:t.hdr ~count:(Htm.read tx (t.hdr + hdr_count)) slot_ref);
  Simmem.free mem ctx slot_ref

let update t ctx slot_ref v = update_indirect t.htm ctx slot_ref v

let collect t ctx buf =
  reverse_collect t.htm ctx ~hdr:t.hdr ~scan:hdr_count ~read:read_value ~stepper:t.stepper buf

let destroy t ctx =
  let mem = Htm.mem t.htm in
  Simmem.free mem ctx (Simmem.read mem ctx (t.hdr + hdr_array));
  Simmem.free mem ctx t.hdr

let maker : Collect_intf.maker =
  {
    algo_name = "ArrayStatAppendDereg";
    solves_dynamic = false;
    uses_htm = true;
    direct_update = false;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ArrayStatAppendDereg";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
