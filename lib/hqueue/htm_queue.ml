(** The HTM FIFO queue (paper §1.1): sequential queue code wrapped in
    hardware transactions.

    A dequeue frees the removed entry immediately after its transaction
    commits. No later transaction can see a reference to it; a concurrent
    transaction that still holds one and dereferences it simply aborts
    (sandboxing, footnote 1 of the paper). That single property removes the
    ABA problem, the need for counted pointers, and the entire reclamation
    protocol that make Michael-Scott hard — this module is the "homework
    exercise" version. *)

let off_val = 0
let off_next = 1
let node_words = 2

(* head and tail words are padded to separate cache lines *)
let hdr_head = 0
let hdr_tail = 8
let hdr_words = 16

(* The transaction bodies are allocated once per queue and passed to every
   [Htm.atomic]; operation arguments and results travel through per-thread
   slots ({!Simmem.slot} of the thread), so an operation allocates nothing
   on the OCaml heap. Per-thread (not plain mutable) because a thread can
   yield inside its transaction while another starts its own. *)
type t = {
  htm : Htm.t;
  mem : Simmem.t;
  hdr : int;
  enq_arg : int array;  (* per-thread node being enqueued *)
  deq_val : int array;  (* per-thread value of the last successful dequeue *)
  mutable enq_body : Htm.tx -> unit;
  mutable deq_body : Htm.tx -> bool;
}

let enq_tx t tx =
  let node = t.enq_arg.(Simmem.slot t.mem (Htm.tx_tid tx)) in
  let tail = Htm.read tx (t.hdr + hdr_tail) in
  if tail = 0 then begin
    Htm.write tx (t.hdr + hdr_head) node;
    Htm.write tx (t.hdr + hdr_tail) node
  end
  else begin
    Htm.write tx (tail + off_next) node;
    Htm.write tx (t.hdr + hdr_tail) node
  end

let deq_tx t tx =
  let head = Htm.read tx (t.hdr + hdr_head) in
  if head = 0 then false
  else begin
    let next = Htm.read tx (head + off_next) in
    Htm.write tx (t.hdr + hdr_head) next;
    if next = 0 then Htm.write tx (t.hdr + hdr_tail) 0;
    t.deq_val.(Simmem.slot t.mem (Htm.tx_tid tx)) <- Htm.read tx (head + off_val);
    Htm.defer_free tx head;
    true
  end

let create htm ctx =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx hdr_words in
  Simmem.label mem ~name:"HtmQueue.header" ~base:hdr ~words:hdr_words;
  let t =
    {
      htm;
      mem;
      hdr;
      enq_arg = Array.make (Simmem.slots mem) 0;
      deq_val = Array.make (Simmem.slots mem) 0;
      enq_body = ignore;
      deq_body = (fun _ -> false);
    }
  in
  t.enq_body <- enq_tx t;
  t.deq_body <- deq_tx t;
  t

let enqueue t ctx v =
  let mem = t.mem in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ~name:"HtmQueue.node" ~base:node ~words:node_words;
  Simmem.write mem ctx (node + off_val) v;
  t.enq_arg.(Simmem.slot mem (Sim.tid ctx)) <- node;
  Htm.atomic t.htm ctx t.enq_body

let dequeue_drop t ctx = Htm.atomic t.htm ctx t.deq_body

let dequeue t ctx =
  if dequeue_drop t ctx then Some t.deq_val.(Simmem.slot t.mem (Sim.tid ctx)) else None

let destroy t ctx =
  let mem = t.mem in
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.hdr + hdr_head));
  Simmem.free mem ctx t.hdr

let maker : Queue_intf.maker =
  {
    queue_name = "HTM";
    reclaims = true;
    make =
      (fun htm ctx ~num_threads:_ ->
        let t = create htm ctx in
        {
          Queue_intf.name = "HTM";
          enqueue = enqueue t;
          dequeue = dequeue t;
          dequeue_drop = dequeue_drop t;
          destroy = destroy t;
        });
  }
