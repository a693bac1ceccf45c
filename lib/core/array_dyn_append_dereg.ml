(** ArrayDynAppendDereg — the paper's flagship algorithm (§4, Figure 2).

    Dynamic array, append-based registration, compaction on every
    deregister. The array grows to [2·count] when full and shrinks to
    [2·count] when only a quarter full, maintaining
    [max(count, MIN_SIZE) <= capacity <= 4·count]. Resizing installs a new
    array and copies slots cooperatively ([help_copy]); registration can
    complete during a resize when both arrays have room (§4.2's
    optimisation). Figure 2's pseudocode is {!Array_common}'s skeleton;
    this module is its two-word slot. *)

open Array_common

(* Copy one slot and redirect its handle's slot reference in the same
   transaction, so updates can never be lost. *)
let copy tx ~hdr:_ ~src ~dst =
  Htm.write tx dst (Htm.read tx src);
  let sref = Htm.read tx (src + 1) in
  Htm.write tx (dst + 1) sref;
  Htm.write tx sref dst

let register t ctx v =
  let slot_ref = Simmem.malloc (Htm.mem t.htm) ctx 1 in
  append_register t ctx ~append slot_ref v;
  slot_ref

let layout =
  {
    name = "ArrayDynAppendDereg";
    direct_update = false;
    slot_words;
    hdr_words;
    scan = hdr_count;
    install_rereads = false;
    copy;
    read = read_value;
    register;
    update = (fun t -> update_indirect t.htm);
    deregister = (fun t ctx slot_ref -> compact_deregister t ctx ~compact slot_ref);
  }

let maker = maker layout
