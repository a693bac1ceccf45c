(** HOHRC — hand-over-hand reference counting over a doubly-linked list
    (paper §3.1.1), with telescoping (§3.4).

    Each node carries a reference count that pins it (prevents
    deallocation) while a collect holds it as its traversal cursor. A
    telescoped collect transaction walks up to [step] nodes, records their
    values, pins the last node reached and unpins its previous cursor — the
    intermediate nodes are only read, which is the whole point of
    telescoping (the naive version writes every node twice, and Figure 3
    shows what that does to cache behaviour).

    Deregistration sets a delete marker; the node is unlinked and freed by
    the deregisterer if unpinned, otherwise by the last collect that unpins
    it. Values in delete-marked nodes are skipped (their registration ended
    before or during the collect), but the nodes are still traversed.

    Update is a naked store: the handle's storage never moves (§3.1's
    stated advantage of the list-based algorithms). *)

(* A FastCollect node (value, next, prev) plus the reference count and the
   delete marker, so {!Fast_collect}'s list operations apply. *)
let off_val = Fast_collect.off_val
let off_next = Fast_collect.off_next
let off_refc = 3
let off_del = 4

let node_words = 5

(* Bookkeeping stores per collect transaction: pin + unpin + 2-store unlink
   + deferred-free bookkeeping margin. *)
let collect_overhead = 5

type t = {
  htm : Htm.t;
  sentinel : int;
  stepper : Stepper.t;
}

let create htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ~name:"ListHoHRC.header" ~base:sentinel ~words:node_words;
  { htm; sentinel; stepper = Stepper.make htm cfg.step ~max_step:((Htm.config htm).store_buffer - collect_overhead) }

let register t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ~name:"ListHoHRC.node" ~base:node ~words:node_words;
  Simmem.write mem ctx (node + off_val) v;
  Htm.atomic t.htm ctx (fun tx -> Fast_collect.link tx ~sentinel:t.sentinel node);
  node

let update t ctx node v = Simmem.write (Htm.mem t.htm) ctx (node + off_val) v

(* Unlink [n] within [tx]; only legal when its reference count is zero and
   its delete marker is set, i.e. nobody can reach or pin it afterwards. *)
let unlink_in_tx tx n =
  Fast_collect.unlink tx n;
  Htm.defer_free tx n

let deregister t ctx node =
  Htm.atomic t.htm ctx (fun tx ->
      Htm.write tx (node + off_del) 1;
      if Htm.read tx (node + off_refc) = 0 then unlink_in_tx tx node)

let collect t ctx buf =
  let rec chunk cur =
    let continue_from =
      Stepper.chunk t.stepper t.htm ctx buf (fun tx step ->
          let node = ref (Htm.read tx (cur + off_next)) in
          let last = ref 0 in
          let k = ref 0 in
          while !node <> 0 && !k < step do
            if Htm.read tx (!node + off_del) = 0 then begin
              Sim.Ibuf.add buf (Htm.read tx (!node + off_val));
              Htm.record tx
            end;
            last := !node;
            incr k;
            node := Htm.read tx (!node + off_next)
          done;
          (* Pin the stopping point if the traversal continues from it. *)
          let continue_from = if !node = 0 then 0 else !last in
          if continue_from <> 0 then
            Htm.write tx (continue_from + off_refc)
              (Htm.read tx (continue_from + off_refc) + 1);
          (* Unpin the previous cursor; the last unpinner of a
             delete-marked node reclaims it. *)
          if cur <> t.sentinel then begin
            let rc = Htm.read tx (cur + off_refc) - 1 in
            Htm.write tx (cur + off_refc) rc;
            if rc = 0 && Htm.read tx (cur + off_del) = 1 then unlink_in_tx tx cur
          end;
          continue_from)
    in
    if continue_from <> 0 then chunk continue_from
  in
  chunk t.sentinel

(* Destroy frees only nodes with refcount zero: a node still pinned by a
   traverser (e.g. one that crashed mid-collect and will never unpin) has a
   reader that may dereference it at any moment, so it can never legally be
   returned to the allocator. This is exactly the leak mode the paper
   ascribes to reference-counting schemes — a crashed thread's pins live
   forever — and leaving such nodes allocated makes the leak measurable via
   [Simmem.live_words]. *)
let destroy t ctx =
  let mem = Htm.mem t.htm in
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      if Simmem.read mem ctx (node + off_refc) = 0 then Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.sentinel + off_next));
  Simmem.free mem ctx t.sentinel

let maker : Collect_intf.maker =
  {
    algo_name = "ListHoHRC";
    solves_dynamic = true;
    uses_htm = true;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ListHoHRC";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
