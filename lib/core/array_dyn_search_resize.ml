(** ArrayDynSearchResize (paper §3.2.4): dynamic array, search-based
    registration, compaction only on resize.

    Slots are 3 words ([+0] occupancy flag, [+1] value, [+2] back-pointer
    to the slot reference); handles are slot references as in the other
    moving-slot algorithms, because resizing compacts occupied slots into
    the new array. Between resizes, deregistered holes are not reused by
    compaction — registration must search for them — so collects
    "frequently traverse more slots than are registered" (§5.4), which is
    this algorithm's characteristic weakness. The resize and the collect
    are {!Array_common}'s skeleton over the whole capacity; registration
    probes, and deregistration clears the slot before it shrinks. *)

open Array_common

let hdr_ncopied = hdr_words (* occupied slots placed into the new array *)

let slot_words = 3

(* Copy an occupied slot to the next free position of the new array
   (compacting), redirecting its handle. *)
let copy tx ~hdr ~src ~dst:_ =
  if Htm.read tx src = 1 then begin
    let anew = Htm.read tx (hdr + hdr_array_new) in
    let ncopied = Htm.read tx (hdr + hdr_ncopied) in
    let ns = anew + (slot_words * ncopied) in
    Htm.write tx ns 1;
    Htm.write tx (ns + 1) (Htm.read tx (src + 1));
    let sref = Htm.read tx (src + 2) in
    Htm.write tx (ns + 2) sref;
    Htm.write tx sref ns;
    Htm.write tx (hdr + hdr_ncopied) (ncopied + 1)
  end

let read tx arr i buf =
  let slot = arr + (slot_words * i) in
  if Htm.read tx slot = 1 then begin
    Sim.Ibuf.add buf (Htm.read tx (slot + 1));
    Htm.record tx
  end

let search_chunk = 16

let register t ctx v =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let slot_ref = Simmem.malloc mem ctx 1 in
  (* The search runs in chunked transactions: a plain-load probe could
     dereference an old array freed by a concurrent resize. Sandboxing
     would save a transaction there, a segfault saves nobody — this is
     precisely the simplification HTM buys (§4.3). A free slot found by a
     probe is claimed within the same transaction. *)
  let rec outer j =
    let res =
      Htm.atomic t.htm ctx (fun tx ->
          if copying tx hdr then `Help
          else begin
            let arr = Htm.read tx (hdr + hdr_array) in
            let capacity = Htm.read tx (hdr + hdr_capacity) in
            let start = if j >= capacity then 0 else j in
            let rec probe i k =
              if i >= capacity then begin
                let count = Htm.read tx (hdr + hdr_count) in
                if count < capacity then `Wrapped (* a hole is behind us *)
                else `Full (count, capacity)
              end
              else if k >= search_chunk then `More i
              else if Htm.read tx (arr + (slot_words * i)) = 0 then begin
                let slot = arr + (slot_words * i) in
                Htm.write tx slot 1;
                Htm.write tx (slot + 1) v;
                Htm.write tx (slot + 2) slot_ref;
                Htm.write tx slot_ref slot;
                Htm.write tx (hdr + hdr_count) (Htm.read tx (hdr + hdr_count) + 1);
                `Claimed
              end
              else probe (i + 1) (k + 1)
            in
            probe start 0
          end)
    in
    match res with
    | `Claimed -> ()
    | `More i -> outer i
    | `Wrapped -> outer 0
    | `Full (count_l, capacity_l) ->
      attempt_resize t ctx ~count_l ~capacity_l;
      outer 0
    | `Help ->
      help_copy t ctx;
      outer 0
  in
  outer 0;
  slot_ref

let deregister t ctx slot_ref =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let rec loop () =
    let action =
      Htm.atomic t.htm ctx (fun tx ->
          if copying tx hdr then `Help
          else begin
            let count_l = Htm.read tx (hdr + hdr_count) in
            let capacity_l = Htm.read tx (hdr + hdr_capacity) in
            let slot = Htm.read tx slot_ref in
            Htm.write tx slot 0;
            Htm.write tx (hdr + hdr_count) (count_l - 1);
            if (count_l - 1) * 4 = capacity_l && (count_l - 1) * 2 >= t.min_size then
              `Shrink (count_l - 1, capacity_l)
            else `Done
          end)
    in
    match action with
    | `Help ->
      help_copy t ctx;
      loop ()
    | `Done -> ()
    | `Shrink (count_l, capacity_l) -> attempt_resize t ctx ~count_l ~capacity_l
  in
  loop ();
  Simmem.free mem ctx slot_ref

let update t ctx slot_ref v =
  Htm.atomic t.htm ctx (fun tx -> Htm.write tx (Htm.read tx slot_ref + 1) v)

let layout =
  {
    name = "ArrayDynSearchResize";
    direct_update = false;
    slot_words;
    hdr_words = hdr_ncopied + 1;
    scan = hdr_capacity;
    install_rereads = true;
    copy;
    read;
    register;
    update;
    deregister;
  }

let maker = maker layout
