(** Michael-Scott queue with epoch-based reclamation (EBR) — the modern
    quiescence-style competitor beside ROP/hazard pointers.

    Each operation {e enters} an epoch: it reads the global epoch counter
    and announces it in a per-thread slot (one store + one store-load
    fence per {e operation}, against ROP's fence per {e traversal step} —
    that amortization is EBR's selling point). Dequeued nodes are
    {e retired} into the owner's limbo bucket for the current epoch. The
    global epoch may advance only when every active thread has announced
    the current value, and a bucket is freed only once the global epoch
    is two ahead of it — two grace periods, so a reader that announced an
    epoch can never hold a pointer into anything freed while it is
    active. Inside an epoch every node reachable at entry stays allocated,
    so the traversal itself needs no announcements: plain reads suffice.

    The price EBR pays, which the ROP scan never does: a single stalled
    (or killed) reader parks the epoch forever and limbo grows without
    bound — reclamation is only eventual. [mk_maker ~grace:1] builds the
    classic broken variant that frees after {e one} grace period; the
    schedule explorer's [broken-epoch] scenario catches its
    use-after-free. *)

(* the global epoch gets its own cache line after head and tail *)
let hdr_epoch = Ms_core.hdr_words

(* Limbo buckets per thread: with two grace periods, at most three epochs
   (current, current-1, current-2) can hold unreclaimed nodes at once. *)
let buckets = 3

type t = {
  mem : Simmem.t;
  hdr : int;
  ann : int; (* announcement array: one word per slot, 0 = quiescent *)
  num_threads : int;
  grace : int; (* epochs a retired node must age; 2 = safe, 1 = the seeded bug *)
  advance_every : int; (* retires between epoch-advance attempts *)
  (* per-thread limbo: [buckets] stacks, tagged with the epoch their
     nodes were retired in (0 = empty/never used) *)
  limbo : Ms_core.stacks; (* [(slot * buckets) + b] -> node stack *)
  limbo_epoch : int array;
  since_advance : int array; (* per-slot retires since the last attempt *)
}

let init ~grace ~advance_every htm ctx ~num_threads ~hdr ~array =
  let mem = Htm.mem htm in
  Simmem.write mem ctx (hdr + hdr_epoch) 1;
  let slots = Sim.max_threads + 1 in
  {
    mem;
    hdr;
    ann = array;
    num_threads;
    grace;
    advance_every;
    limbo = Ms_core.stacks (slots * buckets);
    limbo_epoch = Array.make (slots * buckets) 0;
    since_advance = Array.make slots 0;
  }

let slot r ctx = Ms_core.slot_index ~num_threads:r.num_threads ctx

(* The announcement must be globally visible before the thread starts
   traversing, or a reclaimer can scan past it and advance the epoch with
   this reader unaccounted — the same store-load fence ROP pays, but once
   per operation. *)
let fence_cost = 60

let enter r ctx =
  let e = Simmem.read r.mem ctx (r.hdr + hdr_epoch) in
  Simmem.write r.mem ctx (r.ann + slot r ctx) e;
  Sim.fence ~cost:fence_cost ctx

(* Quiescing is a plain (possibly buffered) store: a scanner reading the
   stale announcement merely delays the advance — the conservative
   direction — so no fence is needed, and that asymmetry is most of
   EBR's performance advantage. *)
let exit r ctx ~slots:_ = Simmem.write r.mem ctx (r.ann + slot r ctx) 0

(* Free this thread's limbo buckets whose epoch has aged out: retired in
   epoch [tag], freeable once the global epoch is [grace] ahead. *)
let free_eligible r ctx epoch =
  for b = 0 to buckets - 1 do
    let k = (slot r ctx * buckets) + b in
    let tag = r.limbo_epoch.(k) in
    if tag > 0 && tag <= epoch - r.grace then begin
      Ms_core.free_all r.mem ctx (Ms_core.stack r.limbo k);
      r.limbo_epoch.(k) <- 0
    end
  done

(* Try to move the global epoch forward: scan every announcement; if some
   active thread still sits in an older epoch the advance is off (that
   reader might hold pointers into the previous epoch's retirees). The
   CAS makes at most one step; losing it means someone else advanced,
   which is just as good. Either way, reclaim what aged out. *)
let try_advance r ctx =
  let e = Simmem.read r.mem ctx (r.hdr + hdr_epoch) in
  let all_current = ref true in
  for s = 0 to r.num_threads do
    let a = Simmem.read r.mem ctx (r.ann + s) in
    if a <> 0 && a <> e then all_current := false
  done;
  if !all_current then begin
    let (_ : bool) =
      Simmem.cas r.mem ctx (r.hdr + hdr_epoch) ~expected:e ~desired:(e + 1)
    in
    ()
  end;
  free_eligible r ctx (Simmem.read r.mem ctx (r.hdr + hdr_epoch))

let retire r ctx node =
  let slot = slot r ctx in
  let e = Simmem.read r.mem ctx (r.hdr + hdr_epoch) in
  let k = (slot * buckets) + (e mod buckets) in
  let bucket = Ms_core.stack r.limbo k in
  (* A stale bucket with this residue holds epoch [e - buckets] retirees
     or older — long past both grace periods; make room. *)
  if r.limbo_epoch.(k) <> 0 && r.limbo_epoch.(k) <> e then
    Ms_core.free_all r.mem ctx bucket;
  r.limbo_epoch.(k) <- e;
  Sim.Ibuf.add bucket node;
  r.since_advance.(slot) <- r.since_advance.(slot) + 1;
  if r.since_advance.(slot) >= r.advance_every then begin
    r.since_advance.(slot) <- 0;
    try_advance r ctx
  end

let drain r ctx = Ms_core.free_stacks r.mem ctx r.limbo

let reclaimer =
  { Ms_core.defaults with
    label = Some "MSQueue+EBR";
    hdr_words = hdr_epoch + 8;
    array = Some ("epochs", fun num_threads -> num_threads + 1);
    enter;
    exit;
    retire;
    drain }

let mk_maker ?(grace = 2) ?advance_every name =
  Ms_core.maker name reclaimer (fun htm ctx ~num_threads ->
      let advance_every =
        Option.value advance_every ~default:((2 * (num_threads + 1)) + 2)
      in
      init ~grace ~advance_every htm ctx ~num_threads)

let maker = mk_maker "MichaelScott+EBR"
