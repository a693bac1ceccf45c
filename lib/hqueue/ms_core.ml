(** The Michael-Scott lock-free queue (PODC '96) as one skeleton, with the
    memory reclamation scheme as a record of hooks.

    Every lock-free queue in this library runs the same enqueue/dequeue CAS
    loops; they differ only in what happens around them — how pointers are
    encoded and nodes recycled, what a thread announces before
    dereferencing a node, and what a dequeued node goes through before the
    allocator may reuse it. That machinery is exactly what the paper's
    §1.1 argues hardware transactions delete: the HTM queue just frees on
    dequeue. Here it is a {!reclaimer}, and each scheme ([Ms_queue],
    [Ms_rop_queue], [Ms_epoch_queue], [Ms_collect_queue], the explorer's
    mutants) is one small record of hooks handed to {!maker}.

    The hooks are a record of toplevel functions rather than a functor
    argument: a record of closed functions is a static constant, while
    each functor application allocates its closures on the OCaml heap at
    start-up. *)

let off_val = 0
let off_next = 1
let node_words = 2

(* head and tail words are padded to separate cache lines, as any
   practical implementation does; a scheme may keep its own words in the
   header from [hdr_words] on *)
let hdr_head = 0
let hdr_tail = 8
let hdr_words = 16

type 'r reclaimer = {
  reclaims : bool;  (** whether dequeued nodes are ever returned to the allocator *)
  label : string option;  (** region-label prefix of the header, array and fresh nodes *)
  hdr_words : int;  (** a scheme's own header words follow head and tail *)
  array : (string * (int -> int)) option;
      (** the scheme's shared array, allocated between the header and the
          sentinel: its label suffix and its size for [num_threads] *)
  recycle : 'r -> Sim.tctx -> int;  (** a pooled node for an enqueue, or 0 for a fresh one *)
  ptr : int -> int;  (** the address a pointer word refers to *)
  swing : int -> int -> int;  (** [swing old p]: the word a CAS installs over [old] to point at [p] *)
  reset_next : Simmem.t -> Sim.tctx -> int -> unit;
      (** prepare an enqueued node's next word, after its value is written *)
  enter : 'r -> Sim.tctx -> unit;
      (** before an operation's loop (in an enqueue, after the value write) *)
  protect : 'r -> Sim.tctx -> int -> int -> unit;
      (** [protect r ctx slot node]: announce [node] in [slot] (0 or 1)
          before dereferencing it *)
  validates : bool;
      (** whether the first [protect] of each attempt is followed by a
          re-read of its source word (the second one always is) *)
  exit : 'r -> Sim.tctx -> slots:int -> unit;
      (** after the loop; [slots] is how many slots the operation used *)
  retire : 'r -> Sim.tctx -> int -> unit;  (** a node just unlinked by a dequeue *)
  drain : 'r -> Sim.tctx -> unit;
      (** in [destroy], before the remaining list is freed: release every
          retired or pooled node *)
}

(* What a scheme does not override: untagged pointers (nodes are never
   recycled while a thread may hold them, so there is no ABA to tag
   against), fresh nodes, no protection. *)
let defaults =
  {
    reclaims = true;
    label = None;
    hdr_words;
    array = None;
    recycle = (fun _ _ -> 0);
    ptr = (fun w -> w);
    swing = (fun _ p -> p);
    reset_next = (fun _ _ _ -> ());
    enter = (fun _ _ -> ());
    protect = (fun _ _ _ _ -> ());
    validates = false;
    exit = (fun _ _ ~slots:_ -> ());
    retire = (fun _ _ _ -> ());
    drain = (fun _ _ -> ());
  }

(* How a scheme builds its state, once the header, its array and the
   sentinel are in place. *)
type 'r init = Htm.t -> Sim.tctx -> num_threads:int -> hdr:int -> array:int -> 'r

let slot_index ~num_threads ctx =
  let tid = Sim.tid ctx in
  if tid = Sim.boot_tid then num_threads
  else if tid < num_threads then tid
  else invalid_arg "Ms_core: thread id outside the declared range"

(* Per-thread (or per-slot) stacks of retired or pooled nodes, each
   created on its first use. Host-side per-thread tables have
   [Simmem.slots] entries, indexed by [Simmem.slot]. *)
type stacks = Sim.Ibuf.t option array

let stacks n : stacks = Array.make n None

let stack (s : stacks) i =
  match s.(i) with
  | Some b -> b
  | None ->
    let b = Sim.Ibuf.create ~capacity:8 () in
    s.(i) <- Some b;
    b

(* Free the nodes of [b] that [keep] rejects, newest first (the LIFO order
   the allocator's free lists expect), and compact the survivors. *)
let reclaim mem ctx ~keep b =
  for i = Sim.Ibuf.length b - 1 downto 0 do
    let node = Sim.Ibuf.get b i in
    if not (keep node) then Simmem.free mem ctx node
  done;
  Sim.Ibuf.filter_in_place keep b

(* Whether [node] is in the announcement snapshot [snap]. *)
let announced snap node =
  let n = Sim.Ibuf.length snap in
  let i = ref 0 in
  while !i < n && Sim.Ibuf.get snap !i <> node do incr i done;
  !i < n

let free_all mem ctx b = reclaim mem ctx ~keep:(fun _ -> false) b
let free_stacks mem ctx (s : stacks) = Array.iter (Option.iter (free_all mem ctx)) s

(* One randomized backoff delay — the draw of [Sim.Backoff.delay] for the
   attempt whose envelope is [bound] — returning the next attempt's bound,
   so the retry loops below carry it as a plain argument. *)
let backoff_base = 50
let backoff_cap = 4096

let backoff_once ctx bound =
  Sim.tick ctx ((bound / 2) + Sim.Rng.int (Sim.rng ctx) (Int.max 1 (bound / 2)));
  Int.min backoff_cap (bound * 2)

type 'r t = {
  mem : Simmem.t;
  h : 'r reclaimer;
  r : 'r;
  hdr : int;
  array : int; (* 0 if the scheme has none *)
  node_label : string option;
  deq_val : int array; (* per-thread value of the last successful dequeue *)
}

let name h suffix = Option.map (fun prefix -> prefix ^ "." ^ suffix) h.label

let label mem name ~base ~words =
  match name with Some name -> Simmem.label mem ~name ~base ~words | None -> ()

(* The header, then the scheme's array, then the sentinel, linked. *)
let create h htm ctx ~num_threads init =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx h.hdr_words in
  let array_words = match h.array with Some (_, size) -> size num_threads | None -> 0 in
  let array = if array_words > 0 then Simmem.malloc mem ctx array_words else 0 in
  let sentinel = Simmem.malloc mem ctx node_words in
  let node_label = name h "node" in
  label mem (name h "header") ~base:hdr ~words:h.hdr_words;
  (match h.array with
   | Some (suffix, _) -> label mem (name h suffix) ~base:array ~words:array_words
   | None -> ());
  label mem node_label ~base:sentinel ~words:node_words;
  Simmem.write mem ctx (hdr + hdr_head) sentinel;
  Simmem.write mem ctx (hdr + hdr_tail) sentinel;
  let r = init htm ctx ~num_threads ~hdr ~array in
  { mem; h; r; hdr; array; node_label; deq_val = Array.make (Simmem.slots mem) 0 }

let alloc q ctx =
  let node = q.h.recycle q.r ctx in
  if node <> 0 then node
  else begin
    let node = Simmem.malloc q.mem ctx node_words in
    label q.mem q.node_label ~base:node ~words:node_words;
    node
  end

let rec enq_loop q ctx node bound =
  let mem = q.mem and h = q.h in
  let tail = Simmem.read mem ctx (q.hdr + hdr_tail) in
  h.protect q.r ctx 0 tail;
  if h.validates && Simmem.read mem ctx (q.hdr + hdr_tail) <> tail then
    enq_loop q ctx node (backoff_once ctx bound)
  else begin
    let tptr = h.ptr tail in
    let next = Simmem.read mem ctx (tptr + off_next) in
    let nptr = h.ptr next in
    if Simmem.read mem ctx (q.hdr + hdr_tail) <> tail then
      enq_loop q ctx node (backoff_once ctx bound)
    else if nptr <> 0 then begin
      (* Help swing the lagging tail forward. *)
      let (_ : bool) =
        Simmem.cas mem ctx (q.hdr + hdr_tail) ~expected:tail ~desired:(h.swing tail nptr)
      in
      enq_loop q ctx node (backoff_once ctx bound)
    end
    else if Simmem.cas mem ctx (tptr + off_next) ~expected:next ~desired:(h.swing next node)
    then begin
      let (_ : bool) =
        Simmem.cas mem ctx (q.hdr + hdr_tail) ~expected:tail ~desired:(h.swing tail node)
      in
      ()
    end
    else enq_loop q ctx node (backoff_once ctx bound)
  end

let enqueue q ctx v =
  let node = alloc q ctx in
  Simmem.write q.mem ctx (node + off_val) v;
  q.h.reset_next q.mem ctx node;
  q.h.enter q.r ctx;
  enq_loop q ctx node backoff_base;
  q.h.exit q.r ctx ~slots:1

(* Returns whether an element was removed; the value parks in the caller's
   [deq_val] slot (read before the CAS — afterwards the node may already
   be reused by another thread). *)
let rec deq_loop q ctx bound =
  let mem = q.mem and h = q.h in
  let head = Simmem.read mem ctx (q.hdr + hdr_head) in
  h.protect q.r ctx 0 head;
  if h.validates && Simmem.read mem ctx (q.hdr + hdr_head) <> head then
    deq_loop q ctx (backoff_once ctx bound)
  else begin
    let tail = Simmem.read mem ctx (q.hdr + hdr_tail) in
    let hptr = h.ptr head in
    let next = Simmem.read mem ctx (hptr + off_next) in
    h.protect q.r ctx 1 next;
    let nptr = h.ptr next in
    if Simmem.read mem ctx (q.hdr + hdr_head) <> head then
      deq_loop q ctx (backoff_once ctx bound)
    else if hptr = h.ptr tail then begin
      if nptr = 0 then false
      else begin
        let (_ : bool) =
          Simmem.cas mem ctx (q.hdr + hdr_tail) ~expected:tail ~desired:(h.swing tail nptr)
        in
        deq_loop q ctx (backoff_once ctx bound)
      end
    end
    else begin
      let v = Simmem.read mem ctx (nptr + off_val) in
      if Simmem.cas mem ctx (q.hdr + hdr_head) ~expected:head ~desired:(h.swing head nptr)
      then begin
        q.deq_val.(Simmem.slot mem (Sim.tid ctx)) <- v;
        h.retire q.r ctx hptr;
        true
      end
      else deq_loop q ctx (backoff_once ctx bound)
    end
  end

let dequeue_drop q ctx =
  q.h.enter q.r ctx;
  let removed = deq_loop q ctx backoff_base in
  q.h.exit q.r ctx ~slots:2;
  removed

let dequeue q ctx =
  if dequeue_drop q ctx then Some q.deq_val.(Simmem.slot q.mem (Sim.tid ctx)) else None

let destroy q ctx =
  let mem = q.mem in
  q.h.drain q.r ctx;
  let rec free_from node =
    if node <> 0 then begin
      let next = q.h.ptr (Simmem.read mem ctx (node + off_next)) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (q.h.ptr (Simmem.read mem ctx (q.hdr + hdr_head)));
  if q.array <> 0 then Simmem.free mem ctx q.array;
  Simmem.free mem ctx q.hdr

let maker name h (init : 'r init) : Queue_intf.maker =
  {
    queue_name = name;
    reclaims = h.reclaims;
    make =
      (fun htm ctx ~num_threads ->
        let q = create h htm ctx ~num_threads init in
        {
          Queue_intf.name;
          enqueue = enqueue q;
          dequeue = dequeue q;
          dequeue_drop = dequeue_drop q;
          destroy = destroy q;
        });
  }
