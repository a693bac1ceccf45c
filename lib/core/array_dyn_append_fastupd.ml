(** ArrayDynAppendDereg optimised for Update — the §4.1 variant the paper
    describes but did not implement.

    The value lives {e with the slot reference} instead of in the array
    slot: a handle is a two-word block [+0: current slot address,
    +1: value], and array slots hold only the back-pointer to the handle.
    Because the handle block never moves, [update] is a naked single-word
    store (the fast ≈135 ns class) even though slots still compact and
    resize. The price moves to [collect], which must dereference each
    slot's handle pointer inside its transaction — two dependent loads per
    element instead of one.

    Everything else — the resize invariant, cooperative [help_copy],
    registration during copying, compaction on deregister — is
    {!Array_common}'s Figure 2 skeleton with one-word slots. Collect costs
    two loads per element, so it keeps full-width steps. *)

open Array_common

let ref_slot = 0 (* handle word: current array slot *)
let ref_val = 1 (* handle word: the bound value *)

let copy tx ~hdr:_ ~src ~dst =
  let handle = Htm.read tx src in
  Htm.write tx dst handle;
  Htm.write tx (handle + ref_slot) dst

let append tx ~hdr ~count handle _ =
  let arr = Htm.read tx (hdr + hdr_array) in
  Htm.write tx (arr + count) handle;
  Htm.write tx (handle + ref_slot) (arr + count);
  Htm.write tx (hdr + hdr_count) (count + 1)

let compact tx ~hdr ~count handle =
  Htm.write tx (hdr + hdr_count) (count - 1);
  let arr = Htm.read tx (hdr + hdr_array) in
  let moved_handle = Htm.read tx (arr + count - 1) in
  let mine = Htm.read tx (handle + ref_slot) in
  Htm.write tx mine moved_handle;
  Htm.write tx (moved_handle + ref_slot) mine

(* the extra dependent load this variant pays *)
let read tx arr i buf =
  let handle = Htm.read tx (arr + i) in
  Sim.Ibuf.add buf (Htm.read tx (handle + ref_val));
  Htm.record tx

let register t ctx v =
  let mem = Htm.mem t.htm in
  let handle = Simmem.malloc mem ctx 2 in
  Simmem.write mem ctx (handle + ref_val) v;
  append_register t ctx ~append handle v;
  handle

let layout =
  {
    name = "ArrayDynAppendFastUpd";
    direct_update = true;
    slot_words = 1;
    hdr_words;
    scan = hdr_count;
    install_rereads = false;
    copy;
    read;
    register;
    update = (fun t ctx handle v -> Simmem.write (Htm.mem t.htm) ctx (handle + ref_val) v);
    deregister = (fun t ctx handle -> compact_deregister t ctx ~compact handle);
  }

let maker = maker layout
