(** FastCollect with deferred frees — the variant sketched in §3.1.2.

    Plain FastCollect restarts a collect whenever the deregister counter
    changes, so frequent deregisters can starve collects entirely
    (Figure 7). The paper suggests "adding a mode in which DeRegister
    operations add nodes to a to-be-freed list that is freed by a Collect
    operation after it completes", noting that HTM makes such variants
    straightforward. This module is that mode of {!Fast_collect}'s
    skeleton:

    - [deregister] unlinks the node, tombstones it (its [prev] field
      becomes a marker) and pushes it onto a shared to-be-freed list —
      {e without} bumping any counter that in-flight collects watch;
    - a collect restarts only if (a) the node its unpinned cursor rests on
      was itself deregistered (the tombstone check), or (b) a reclaim has
      freed memory since its previous chunk (the epoch check, which is
      what keeps an unlinked-but-parked cursor dereferenceable);
    - after completing, [collect] detaches the to-be-freed list in one
      transaction, bumps the reclaim epoch, and frees the nodes.

    Restarts thus require a deregister to hit the collect's cursor node
    exactly, or a whole collect to complete elsewhere — orders of
    magnitude rarer than "any deregister anywhere", which is the starvation
    fix. The price is that reclamation waits for the next completed
    collect. *)

open Fast_collect

let tombstone = -1 (* prev-field marker for unlinked nodes *)

let hdr_epoch = 0 (* the version: bumped by every reclaim *)
let hdr_free_list = 1

let retire tx ~hdr node =
  unlink tx node;
  Htm.write tx (node + off_prev) tombstone;
  (* push onto the to-be-freed list, reusing the next field (safe: the
     node is unlinked, and parked cursors check the tombstone before
     following it) *)
  Htm.write tx (node + off_next) (Htm.read tx (hdr + hdr_free_list));
  Htm.write tx (hdr + hdr_free_list) node

(* our cursor's node was deregistered under us *)
let stale t tx cur = cur <> t.sentinel && Htm.read tx (cur + off_prev) = tombstone

(* Detach the to-be-freed list, bump the epoch, and free the nodes (which
   are private once detached). *)
let reclaim t ctx =
  let head =
    Htm.atomic t.htm ctx (fun tx ->
        let head = Htm.read tx (t.hdr + hdr_free_list) in
        if head <> 0 then begin
          Htm.write tx (t.hdr + hdr_free_list) 0;
          Htm.write tx (t.hdr + hdr_epoch) (Htm.read tx (t.hdr + hdr_epoch) + 1)
        end;
        head)
  in
  free_list (Htm.mem t.htm) ctx head

let drain t ctx =
  let mem = Htm.mem t.htm in
  free_list mem ctx (Simmem.read mem ctx (t.hdr + hdr_free_list))

let maker =
  make_maker
    {
      name = "ListFastCollectDeferred";
      header_label = "ListFastDeferred.header";
      node_label = "ListFastDeferred.node";
      hdr_words = 2;
      retire;
      stale;
      reclaim;
      drain;
    }
