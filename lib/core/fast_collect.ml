(** FastCollect (paper §3.1.2): doubly-linked list plus a shared
    deregister counter [dc], with its two reclamation modes as one
    skeleton.

    Deregister atomically unlinks the node and increments [dc], then frees
    the node immediately — no reference counts, so collects write nothing
    while traversing. A collect reads [dc] in its first transaction; every
    later transaction re-reads [dc] before touching its cursor and restarts
    the whole collect if it changed. The cursor is not pinned, so it may
    point to freed memory after a deregister — the [dc] check (plus HTM
    sandboxing for the in-flight window) is what makes that safe, and it is
    why this algorithm is essentially impossible without HTM.

    The disadvantage (§3.1.2, Figure 7): frequent deregisters starve
    collects through endless restarts. The deferred mode
    ({!Fast_collect_deferred}) is the paper's fix; the traversal, the
    registration and the teardown are the same, so a mode is a record of
    toplevel functions (the {!Array_common.layout} pattern) saying only
    how a node is retired, when a cursor has gone stale and what a
    completed collect reclaims. Header word 0 is the mode's version
    counter: a chunk restarts the collect when it changed since the
    previous chunk. *)

let off_val = 0
let off_next = 1
let off_prev = 2

let node_words = 3

type t = {
  htm : Htm.t;
  hdr : int;
  sentinel : int;
  stepper : Stepper.t;
  m : mode;
}

and mode = {
  name : string;
  header_label : string;
  node_label : string;
  hdr_words : int;
  retire : Htm.tx -> hdr:int -> int -> unit;
      (** the whole deregister transaction body for a node *)
  stale : t -> Htm.tx -> int -> bool;
      (** whether a chunk must restart although the version held, given
          its cursor *)
  reclaim : t -> Sim.tctx -> unit;  (** after each completed collect *)
  drain : t -> Sim.tctx -> unit;  (** in [destroy], after the list is freed *)
}

let create m htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx m.hdr_words in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ~name:m.header_label ~base:hdr ~words:m.hdr_words;
  Simmem.label mem ~name:m.header_label ~base:sentinel ~words:node_words;
  { htm; hdr; sentinel; stepper = Stepper.make htm cfg.step ~max_step:(Htm.config htm).store_buffer; m }

(* Link [node] first in the list, inside the caller's transaction. *)
let link tx ~sentinel node =
  let first = Htm.read tx (sentinel + off_next) in
  Htm.write tx (node + off_next) first;
  Htm.write tx (node + off_prev) sentinel;
  Htm.write tx (sentinel + off_next) node;
  if first <> 0 then Htm.write tx (first + off_prev) node

(* Unlink [node] from the list, inside the caller's transaction. *)
let unlink tx node =
  let prev = Htm.read tx (node + off_prev) in
  let next = Htm.read tx (node + off_next) in
  Htm.write tx (prev + off_next) next;
  if next <> 0 then Htm.write tx (next + off_prev) prev

let register t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ~name:t.m.node_label ~base:node ~words:node_words;
  Simmem.write mem ctx (node + off_val) v;
  Htm.atomic t.htm ctx (fun tx -> link tx ~sentinel:t.sentinel node);
  node

let update t ctx node v = Simmem.write (Htm.mem t.htm) ctx (node + off_val) v

let deregister t ctx node = Htm.atomic t.htm ctx (fun tx -> t.m.retire tx ~hdr:t.hdr node)

let collect t ctx buf =
  let len0 = Sim.Ibuf.length buf in
  let rec chunk ~v0 cur =
    match
      Stepper.chunk t.stepper t.htm ctx buf (fun tx step ->
          (* Read the version before touching the unpinned cursor: if it
             held since the previous chunk, the cursor is still
             dereferenceable. *)
          let v = Htm.read tx t.hdr in
          if (v0 >= 0 && v <> v0) || t.m.stale t tx cur then `Restart
          else begin
            let node = ref (Htm.read tx (cur + off_next)) in
            let last = ref 0 in
            let k = ref 0 in
            while !node <> 0 && !k < step do
              Sim.Ibuf.add buf (Htm.read tx (!node + off_val));
              Htm.record tx;
              last := !node;
              incr k;
              node := Htm.read tx (!node + off_next)
            done;
            if !node = 0 then `Finished else `More (v, !last)
          end)
    with
    | `Restart ->
      Sim.Ibuf.reset_to buf len0;
      chunk ~v0:(-1) t.sentinel
    | `Finished -> ()
    | `More (v, last) -> chunk ~v0:v last
  in
  chunk ~v0:(-1) t.sentinel;
  t.m.reclaim t ctx

(* Free a [next]-linked chain of nodes, from its head. *)
let rec free_list mem ctx node =
  if node <> 0 then begin
    let next = Simmem.read mem ctx (node + off_next) in
    Simmem.free mem ctx node;
    free_list mem ctx next
  end

let destroy t ctx =
  let mem = Htm.mem t.htm in
  free_list mem ctx (Simmem.read mem ctx (t.sentinel + off_next));
  t.m.drain t ctx;
  Simmem.free mem ctx t.sentinel;
  Simmem.free mem ctx t.hdr

let make_maker m : Collect_intf.maker =
  {
    algo_name = m.name;
    solves_dynamic = true;
    uses_htm = true;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create m htm ctx cfg in
        {
          Collect_intf.name = m.name;
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = collect t;
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }

(* The immediate mode: [dc] is the version; deregister bumps it and frees
   the node at commit. *)
let immediate =
  {
    name = "ListFastCollect";
    header_label = "ListFast.header";
    node_label = "ListFast.node";
    hdr_words = 1;
    retire =
      (fun tx ~hdr node ->
        Htm.write tx hdr (Htm.read tx hdr + 1);
        unlink tx node;
        Htm.defer_free tx node);
    stale = (fun _ _ _ -> false);
    reclaim = (fun _ _ -> ());
    drain = (fun _ _ -> ());
  }

let maker = make_maker immediate
